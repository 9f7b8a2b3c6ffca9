// Fuzz targets for the artifact decode paths: a real deployment feeds
// these bytes straight off the network, so every Unmarshal must survive
// adversarial input without panicking, and anything it does accept must
// re-encode to a semantically identical artifact.
//
//	go test -fuzz FuzzUnmarshalCiphertextVector ./internal/wire
//
// Under plain `go test` each target runs its seed corpus only.
package wire

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// fuzzKey is the fixture key every target validates against (decoding is
// key-relative for ciphertexts: range checks depend on n^{s+1}).
func fuzzKey(f *testing.F) *damgardjurik.ThresholdKey {
	f.Helper()
	tk, _, err := damgardjurik.FixtureThresholdKey(128, 1, 4, 2)
	if err != nil {
		f.Fatal(err)
	}
	return tk
}

// seedMutations adds buf plus a few structured corruptions of it —
// truncations, a flipped kind byte, a bumped version and a length-prefix
// lie — so the corpus starts on the interesting edges even before the
// fuzzer mutates.
func seedMutations(f *testing.F, buf []byte) {
	f.Helper()
	f.Add(buf)
	for _, cut := range []int{0, 1, 2, len(buf) / 2, len(buf) - 1} {
		if cut >= 0 && cut < len(buf) {
			f.Add(buf[:cut])
		}
	}
	if len(buf) > 0 {
		kind := append([]byte(nil), buf...)
		kind[0] ^= 0xFF
		f.Add(kind)
	}
	if len(buf) > 1 {
		ver := append([]byte(nil), buf...)
		ver[1]++
		f.Add(ver)
	}
	if len(buf) > 5 {
		lie := append([]byte(nil), buf...)
		lie[5] ^= 0x80 // corrupt the first length prefix
		f.Add(lie)
	}
}

func FuzzUnmarshalCiphertextVector(f *testing.F) {
	tk := fuzzKey(f)
	cs := make([]*big.Int, 3)
	for i := range cs {
		c, err := tk.Encrypt(rand.Reader, big.NewInt(int64(i+1)))
		if err != nil {
			f.Fatal(err)
		}
		cs[i] = c
	}
	buf, err := MarshalCiphertextVector(&tk.PublicKey, cs)
	if err != nil {
		f.Fatal(err)
	}
	seedMutations(f, buf)
	pk := &tk.PublicKey
	f.Fuzz(func(t *testing.T, data []byte) {
		want, oerr := oracleUnmarshalCiphertextVector(pk, data)
		got := freshInts(impliedCount(data, pk.CiphertextBytes()))
		requireParity(t, got, UnmarshalCiphertextVectorInto(pk, got, data), want, oerr)
		vs, err := UnmarshalCiphertextVector(pk, data)
		requireParity(t, vs, err, want, oerr)
		if err != nil {
			return
		}
		back, err := MarshalCiphertextVector(pk, vs)
		if err != nil {
			t.Fatalf("accepted vector does not re-marshal: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("vector re-encoding differs from accepted input")
		}
	})
}
