package wire

import (
	"math/big"
	"testing"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// The allocating vector decoders the Into forms replaced — their checks
// and arithmetic verbatim, their error text aside — kept as the oracle
// the Into forms are held to: same inputs accepted and rejected, same
// values decoded.

func oracleUnmarshalResidueVector(m *big.Int, buf []byte) ([]*big.Int, error) {
	r, err := checkHeader(buf, kindResidueVec)
	if err != nil {
		return nil, err
	}
	count, err := r.uint32()
	if err != nil {
		return nil, err
	}
	width := residueWidth(m)
	if uint64(len(r.buf)) != uint64(count)*uint64(width) {
		return nil, ErrTruncated
	}
	out := make([]*big.Int, count)
	for i := range out {
		v := new(big.Int).SetBytes(r.buf[:width])
		r.buf = r.buf[width:]
		if v.Cmp(m) >= 0 {
			return nil, ErrTruncated
		}
		out[i] = v
	}
	return out, nil
}

func oracleUnmarshalCiphertextVector(pk *damgardjurik.PublicKey, buf []byte) ([]*big.Int, error) {
	r, err := checkHeader(buf, kindCipher)
	if err != nil {
		return nil, err
	}
	count, err := r.uint32()
	if err != nil {
		return nil, err
	}
	width := pk.CiphertextBytes()
	if uint64(len(r.buf)) != uint64(count)*uint64(width) {
		return nil, ErrTruncated
	}
	out := make([]*big.Int, count)
	for i := range out {
		c := new(big.Int).SetBytes(r.buf[:width])
		r.buf = r.buf[width:]
		if c.Sign() <= 0 || c.Cmp(pk.CiphertextModulus()) >= 0 {
			return nil, ErrTruncated
		}
		out[i] = c
	}
	return out, nil
}

// freshInts returns n independent integers holding a stale value, the
// storage an Into decoder overwrites.
func freshInts(n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = big.NewInt(int64(1000 + i))
	}
	return out
}

// impliedCount is the only element count a vector of len(buf) bytes can
// hold at the given width: what a caller that knows its shape passes.
func impliedCount(buf []byte, width int) int {
	return max(0, (len(buf)-vectorBytes(width, 0))/width)
}

// requireParity holds an Into decode (err, got) to the oracle's verdict
// (oerr, want) over a destination of len(got) elements: it accepts
// exactly when the oracle accepts a vector of that length, and then
// holds the oracle's values.
func requireParity(t *testing.T, got []*big.Int, err error, want []*big.Int, oerr error) {
	t.Helper()
	wantOK := oerr == nil && len(want) == len(got)
	if (err == nil) != wantOK {
		t.Fatalf("decode into %d elements: err %v, oracle err %v with %d elements", len(got), err, oerr, len(want))
	}
	if err != nil {
		return
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			t.Fatalf("element %d: %v, oracle %v", i, got[i], want[i])
		}
	}
}

// vectorCase is one input of the parity table.
type vectorCase struct {
	name string
	buf  []byte
}

// vectorCases builds the parity table from a valid encoding: the
// encoding itself, every truncation, one trailing byte, a bumped count,
// every body byte forced to 0x00 and to 0xFF (out of range for the
// high bytes), and a wrong kind.
func vectorCases(valid []byte) []vectorCase {
	cases := []vectorCase{{"valid", valid}}
	for cut := 0; cut < len(valid); cut++ {
		cases = append(cases, vectorCase{"truncated", valid[:cut]})
	}
	cases = append(cases, vectorCase{"trailing", append(append([]byte(nil), valid...), 0)})
	if len(valid) >= 10 {
		more := append([]byte(nil), valid...)
		more[9]++
		cases = append(cases, vectorCase{"count+1", more})
	}
	for i := 10; i < len(valid); i++ {
		for _, b := range []byte{0x00, 0xFF} {
			c := append([]byte(nil), valid...)
			c[i] = b
			cases = append(cases, vectorCase{"body byte", c})
		}
	}
	kind := append([]byte(nil), valid...)
	kind[0] ^= 0xFF
	return append(cases, vectorCase{"kind", kind})
}

// TestVectorDecodeIntoMatchesOracle holds both Into decoders — the
// accounted suite's residues and the Damgård–Jurik suite's ciphertexts
// — to the allocating oracle over valid inputs, out-of-range elements,
// wrong counts (destinations one short and one long) and truncations,
// decoding into integers that already hold values.
func TestVectorDecodeIntoMatchesOracle(t *testing.T) {
	m := new(big.Int).Lsh(big.NewInt(1), 70)
	m.Sub(m, big.NewInt(3))
	tk, _, err := damgardjurik.FixtureThresholdKey(128, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pk := &tk.PublicKey
	for _, count := range []int{0, 1, 3} {
		residues := make([]*big.Int, count)
		ciphers := make([]*big.Int, count)
		for i := range residues {
			residues[i] = new(big.Int).Sub(m, big.NewInt(int64(7*i+1)))
			if ciphers[i], err = tk.Encrypt(nil, big.NewInt(int64(i+2))); err != nil {
				t.Fatal(err)
			}
		}
		rv, err := MarshalResidueVector(m, residues)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := MarshalCiphertextVector(pk, ciphers)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range vectorCases(rv) {
			want, oerr := oracleUnmarshalResidueVector(m, c.buf)
			for n := max(0, count-1); n <= count+1; n++ {
				got := freshInts(n)
				requireParity(t, got, UnmarshalResidueVectorInto(m, got, c.buf), want, oerr)
			}
		}
		for _, c := range vectorCases(cv) {
			want, oerr := oracleUnmarshalCiphertextVector(pk, c.buf)
			for n := max(0, count-1); n <= count+1; n++ {
				got := freshInts(n)
				requireParity(t, got, UnmarshalCiphertextVectorInto(pk, got, c.buf), want, oerr)
			}
			vs, err := UnmarshalCiphertextVector(pk, c.buf)
			requireParity(t, vs, err, want, oerr)
		}
	}
}

// TestAppendVectorsMatchMarshal pins the append forms to the marshal
// bytes after an existing prefix, and an error to leave the prefix
// unextended.
func TestAppendVectorsMatchMarshal(t *testing.T) {
	m := big.NewInt(251)
	vs := []*big.Int{big.NewInt(0), big.NewInt(250), big.NewInt(17)}
	want, err := MarshalResidueVector(m, vs)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{9, 8, 7}
	got, err := AppendResidueVector(append([]byte(nil), prefix...), m, vs, self)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:3]) != string(prefix) || string(got[3:]) != string(want) {
		t.Fatalf("AppendResidueVector wrote %x after the prefix, want %x", got[3:], want)
	}
	got, err = AppendResidueVector(append([]byte(nil), prefix...), m, []*big.Int{big.NewInt(1), big.NewInt(251)}, self)
	if err == nil || string(got) != string(prefix) {
		t.Fatalf("out-of-ring append: %v, buffer %x, want an error and the prefix alone", err, got)
	}
}
