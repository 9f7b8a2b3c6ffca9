package wire

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"chiaroscuro/internal/crypto/damgardjurik"
)

func testKey(t *testing.T) (*damgardjurik.ThresholdKey, []damgardjurik.KeyShare) {
	t.Helper()
	tk, shares, err := damgardjurik.FixtureThresholdKey(128, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tk, shares
}

func TestCiphertextVectorRoundTrip(t *testing.T) {
	tk, shares := testKey(t)
	pk := &tk.PublicKey
	var cs []*big.Int
	for i := int64(0); i < 5; i++ {
		c, err := pk.Encrypt(rand.Reader, big.NewInt(100+i))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	buf, err := MarshalCiphertextVector(pk, cs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCiphertextVector(pk, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 {
		t.Fatalf("vector length %d", len(back))
	}
	for i := range back {
		if back[i].Cmp(cs[i]) != 0 {
			t.Fatalf("element %d mismatch", i)
		}
	}
	// The deserialized ciphertexts decrypt correctly.
	p1, _ := tk.PartialDecrypt(shares[0], back[3])
	p2, _ := tk.PartialDecrypt(shares[2], back[3])
	got, err := tk.Combine([]damgardjurik.PartialDecryption{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 103 {
		t.Fatalf("decrypted deserialized ciphertext = %v", got)
	}
}

// TestUnmarshalRejectsGarbage feeds both vector decoders, allocating
// and into a destination, the header and framing refusals of
// checkHeader and readVector. Each case is written after the decoder's
// own kind byte, except the kind-less ones.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	tk, _ := testKey(t)
	pk := &tk.PublicKey
	m := big.NewInt(1 << 20)
	cases := []struct {
		name   string
		noKind bool
		rest   []byte
		want   error // nil: any error
	}{
		{"nil", true, nil, ErrTruncated},
		{"kind only", false, nil, ErrTruncated},
		{"wrong kind", true, []byte{0xFF, version, 0, 0, 0, 4, 0, 0, 0, 0}, ErrBadKind},
		{"wrong version", false, []byte{0x99, 0, 0, 0, 4, 0, 0, 0, 0}, ErrBadVer},
		{"truncated count field", false, []byte{version, 0, 0, 0, 9}, ErrTruncated},
		{"short count prefix", false, []byte{version, 0, 0}, ErrTruncated},
		{"undersized body", false, []byte{version, 0, 0, 0, 4, 0, 0, 0, 1, 0x00}, nil},
	}
	for _, tc := range cases {
		build := func(kind byte) []byte {
			if tc.noKind {
				return tc.rest
			}
			return append([]byte{kind}, tc.rest...)
		}
		cbuf, rbuf := build(kindCipher), build(kindResidueVec)
		_, e1 := UnmarshalCiphertextVector(pk, cbuf)
		_, e3 := UnmarshalResidueVector(m, rbuf)
		errs := []error{
			e1,
			UnmarshalCiphertextVectorInto(pk, freshInts(1), cbuf),
			e3,
			UnmarshalResidueVectorInto(m, freshInts(1), rbuf),
		}
		for i, err := range errs {
			if err == nil {
				t.Errorf("%s: decoder %d accepted garbage", tc.name, i)
			} else if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("%s: decoder %d: %v, want %v", tc.name, i, err, tc.want)
			}
		}
	}
}

// TestUnmarshalKindMismatch checks that neither vector decoder accepts
// the other's artifact.
func TestUnmarshalKindMismatch(t *testing.T) {
	tk, _ := testKey(t)
	pk := &tk.PublicKey
	c, err := pk.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	cbuf, err := MarshalCiphertextVector(pk, []*big.Int{c})
	if err != nil {
		t.Fatal(err)
	}
	m := pk.CiphertextModulus()
	if _, err := UnmarshalResidueVector(m, cbuf); !errors.Is(err, ErrBadKind) {
		t.Fatalf("ciphertext vector read as residues: %v", err)
	}
	rbuf, err := MarshalResidueVector(m, []*big.Int{c})
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalCiphertextVectorInto(pk, freshInts(1), rbuf); !errors.Is(err, ErrBadKind) {
		t.Fatalf("residue vector read as ciphertexts: %v", err)
	}
}

// TestTrailingBytesRejected checks that a byte past an artifact's end is
// refused: by the vector decoders, whose body must be exactly the
// declared count, and by a composite message's FieldReader.Done.
func TestTrailingBytesRejected(t *testing.T) {
	tk, _ := testKey(t)
	pk := &tk.PublicKey
	c, err := pk.Encrypt(rand.Reader, big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := MarshalCiphertextVector(pk, []*big.Int{c})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xAB)
	if _, err := UnmarshalCiphertextVector(pk, buf); err == nil {
		t.Fatal("trailing bytes accepted by the ciphertext vector decoder")
	}
	m := big.NewInt(1000)
	rbuf, err := MarshalResidueVector(m, []*big.Int{big.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalResidueVectorInto(m, freshInts(1), append(rbuf, 0)); err == nil {
		t.Fatal("trailing bytes accepted by the residue vector decoder")
	}
	fr := NewFieldReader(append(AppendUint32(nil, 3), 0xAB))
	if v, err := fr.Uint32(); err != nil || v != 3 {
		t.Fatalf("field = %d, %v", v, err)
	}
	if err := fr.Done(); err == nil {
		t.Fatal("trailing bytes accepted by FieldReader.Done")
	}
}

// TestUint64Field checks the 8-byte scalar field: it is byte-identical
// to an 8-byte opaque field, it round-trips, and a field of any other
// width or a truncated one is refused.
func TestUint64Field(t *testing.T) {
	const v = 0x0123456789ABCDEF
	buf := AppendUint64([]byte{0xEE}, v)
	if want := AppendBytes([]byte{0xEE}, []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}); !bytes.Equal(buf, want) {
		t.Fatalf("AppendUint64 = %x, want %x", buf, want)
	}
	fr := NewFieldReader(buf[1:])
	if got, err := fr.Uint64(); err != nil || got != v {
		t.Fatalf("Uint64 = %#x, %v", got, err)
	}
	if err := fr.Done(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFieldReader(AppendUint32(nil, 7)).Uint64(); err == nil {
		t.Fatal("4-byte field read as an 8-byte scalar")
	}
	if _, err := NewFieldReader(buf[1 : len(buf)-1]).Uint64(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated field: err = %v, want ErrTruncated", err)
	}
}

func TestMarshalValidation(t *testing.T) {
	tk, _ := testKey(t)
	pk := &tk.PublicKey
	if _, err := MarshalCiphertextVector(nil, nil); err == nil {
		t.Error("nil public key accepted")
	}
	if _, err := MarshalCiphertextVector(pk, []*big.Int{big.NewInt(0)}); err == nil {
		t.Error("zero ciphertext accepted")
	}
	if _, err := MarshalCiphertextVector(pk, []*big.Int{pk.CiphertextModulus()}); err == nil {
		t.Error("out-of-range ciphertext accepted")
	}
	if _, err := MarshalCiphertextVector(pk, []*big.Int{nil}); err == nil {
		t.Error("nil element accepted")
	}
	m := big.NewInt(1000)
	if _, err := MarshalResidueVector(nil, nil); err == nil {
		t.Error("nil modulus accepted")
	}
	for _, v := range []*big.Int{nil, big.NewInt(-1), big.NewInt(1000)} {
		if _, err := MarshalResidueVector(m, []*big.Int{v}); err == nil {
			t.Errorf("residue %v outside the ring accepted", v)
		}
	}
}

func TestVectorOutOfRangeElementRejected(t *testing.T) {
	tk, _ := testKey(t)
	pk := &tk.PublicKey
	c, _ := pk.Encrypt(rand.Reader, big.NewInt(1))
	buf, err := MarshalCiphertextVector(pk, []*big.Int{c})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the body to all 0xFF: >= n^{s+1} must be rejected.
	body := buf[len(buf)-pk.CiphertextBytes():]
	for i := range body {
		body[i] = 0xFF
	}
	if _, err := UnmarshalCiphertextVector(pk, buf); err == nil {
		t.Fatal("out-of-range vector element accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	tk, _ := testKey(t)
	pk := &tk.PublicKey
	c, err := pk.Encrypt(rand.Reader, big.NewInt(11))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := MarshalCiphertextVector(pk, []*big.Int{c, c})
	b, _ := MarshalCiphertextVector(pk, []*big.Int{c, c})
	if !bytes.Equal(a, b) {
		t.Fatal("ciphertext vector encoding is not deterministic")
	}
	m := big.NewInt(1000)
	ra, _ := MarshalResidueVector(m, []*big.Int{big.NewInt(1), big.NewInt(999)})
	rb, _ := MarshalResidueVector(m, []*big.Int{big.NewInt(1), big.NewInt(999)})
	if !bytes.Equal(ra, rb) {
		t.Fatal("residue vector encoding is not deterministic")
	}
}
