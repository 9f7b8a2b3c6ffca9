// Fuzz targets for the artifact decode paths: a real deployment feeds
// these bytes straight off the network, so every Unmarshal must survive
// adversarial input without panicking, and anything it does accept must
// re-encode to a semantically identical artifact.
//
//	go test -fuzz FuzzUnmarshalCiphertext ./internal/wire
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

func FuzzUnmarshalCiphertext(f *testing.F) {
	tk := fuzzKey(f)
	ct, err := tk.Encrypt(rand.Reader, big.NewInt(123456789))
	if err != nil {
		f.Fatal(err)
	}
	buf, err := MarshalCiphertext(&tk.PublicKey, ct)
	if err != nil {
		f.Fatal(err)
	}
	seedMutations(f, buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCiphertext(&tk.PublicKey, data)
		if err != nil {
			return
		}
		// Accepted ciphertexts are fixed-width, so the encoding is
		// canonical: re-marshaling must reproduce the input exactly.
		back, err := MarshalCiphertext(&tk.PublicKey, c)
		if err != nil {
			t.Fatalf("accepted ciphertext does not re-marshal: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("ciphertext re-encoding differs from accepted input")
		}
	})
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

func FuzzUnmarshalPartial(f *testing.F) {
	tk := fuzzKey(f)
	_, shares, err := damgardjurik.FixtureThresholdKey(128, 1, 4, 2)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := tk.Encrypt(rand.Reader, big.NewInt(42))
	if err != nil {
		f.Fatal(err)
	}
	pd, err := tk.PartialDecrypt(shares[0], ct)
	if err != nil {
		f.Fatal(err)
	}
	buf, err := MarshalPartial(pd)
	if err != nil {
		f.Fatal(err)
	}
	seedMutations(f, buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPartial(data)
		if err != nil {
			return
		}
		// big.Int fields are minimal-magnitude, so leading zeros make the
		// encoding non-canonical; the contract is semantic round-trip.
		back, err := MarshalPartial(p)
		if err != nil {
			t.Fatalf("accepted partial does not re-marshal: %v", err)
		}
		again, err := UnmarshalPartial(back)
		if err != nil {
			t.Fatalf("re-marshaled partial does not decode: %v", err)
		}
		if again.Index != p.Index || again.Value.Cmp(p.Value) != 0 {
			t.Fatalf("partial round trip drifted")
		}
	})
}

func FuzzUnmarshalKeyShare(f *testing.F) {
	_, shares, err := damgardjurik.FixtureThresholdKey(128, 1, 4, 2)
	if err != nil {
		f.Fatal(err)
	}
	buf, err := MarshalKeyShare(shares[1])
	if err != nil {
		f.Fatal(err)
	}
	seedMutations(f, buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		ks, err := UnmarshalKeyShare(data)
		if err != nil {
			return
		}
		back, err := MarshalKeyShare(ks)
		if err != nil {
			t.Fatalf("accepted key share does not re-marshal: %v", err)
		}
		again, err := UnmarshalKeyShare(back)
		if err != nil {
			t.Fatalf("re-marshaled key share does not decode: %v", err)
		}
		if again.Index != ks.Index || again.Value.Cmp(ks.Value) != 0 {
			t.Fatalf("key share round trip drifted")
		}
	})
}

func FuzzUnmarshalPublicKey(f *testing.F) {
	tk := fuzzKey(f)
	buf, err := MarshalPublicKey(&tk.PublicKey)
	if err != nil {
		f.Fatal(err)
	}
	seedMutations(f, buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		pk, err := UnmarshalPublicKey(data)
		if err != nil {
			return
		}
		if pk.S < 1 || pk.S > 16 {
			t.Fatalf("accepted degree %d outside the wire bound", pk.S)
		}
		back, err := MarshalPublicKey(pk)
		if err != nil {
			t.Fatalf("accepted public key does not re-marshal: %v", err)
		}
		again, err := UnmarshalPublicKey(back)
		if err != nil {
			t.Fatalf("re-marshaled public key does not decode: %v", err)
		}
		if again.N.Cmp(pk.N) != 0 || again.S != pk.S {
			t.Fatalf("public key round trip drifted")
		}
	})
}
