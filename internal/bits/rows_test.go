package bits

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func randomRows(rng *rand.Rand, count, dim, b int) [][]uint8 {
	rows := make([][]uint8, count)
	for i := range rows {
		row := make([]uint8, dim)
		for j := range row {
			row[j] = uint8(rng.Intn(1 << b))
		}
		rows[i] = row
	}
	return rows
}

func TestPackedRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for b := 4; b <= 8; b++ {
		for _, dim := range []int{1, 2, 5, 6, 7, 10, 16, 33} {
			rows := randomRows(rng, 19, dim, b)
			p := NewPackedRows(len(rows), dim, b)
			for i, row := range rows {
				p.EncodeRow(i, row)
			}
			dst := make([]uint8, dim)
			for i, row := range rows {
				p.DecodeRow(i, dst)
				for j := range row {
					if dst[j] != row[j] {
						t.Fatalf("b=%d dim=%d: row %d dim %d = %d, want %d", b, dim, i, j, dst[j], row[j])
					}
				}
				if !p.EqualRow(i, row) {
					t.Fatalf("b=%d dim=%d: EqualRow(%d) = false for own row", b, dim, i)
				}
			}
			// EqualRow detects a single-code difference anywhere.
			for trial := 0; trial < 10; trial++ {
				i := rng.Intn(len(rows))
				j := rng.Intn(dim)
				mut := append([]uint8(nil), rows[i]...)
				mut[j] ^= 1
				if p.EqualRow(i, mut) {
					t.Fatalf("b=%d dim=%d: EqualRow missed a difference at (%d,%d)", b, dim, i, j)
				}
			}
		}
	}
}

func TestPackedRowsStride(t *testing.T) {
	// b=5 → 12 codes/word with 4 padding bits; dim=16 needs 2 words.
	p := NewPackedRows(3, 16, 5)
	if p.CodesPerWord() != 12 || p.WordsPerRow() != 2 {
		t.Fatalf("cpw=%d wpr=%d, want 12, 2", p.CodesPerWord(), p.WordsPerRow())
	}
	if len(p.Words()) != 6 {
		t.Fatalf("words len %d, want 6", len(p.Words()))
	}
	// Row slices are disjoint fixed-stride windows.
	row := make([]uint8, 16)
	for j := range row {
		row[j] = uint8(j)
	}
	p.EncodeRow(1, row)
	if p.Words()[0] != 0 || p.Words()[1] != 0 || p.Words()[4] != 0 || p.Words()[5] != 0 {
		t.Fatal("EncodeRow wrote outside its row's words")
	}
}

func TestPackedRowsDerivations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for b := 4; b <= 8; b++ {
		dim := 9
		rows := randomRows(rng, 8, dim, b)
		p := NewPackedRows(len(rows), dim, b)
		for i, row := range rows {
			p.EncodeRow(i, row)
		}
		// Append: derived store byte-identical to fresh encoding.
		extra := randomRows(rng, 1, dim, b)[0]
		ap := p.WithAppendedRow(extra)
		fresh := NewPackedRows(len(rows)+1, dim, b)
		for i, row := range append(append([][]uint8{}, rows...), extra) {
			fresh.EncodeRow(i, row)
		}
		if !ap.Equal(fresh) {
			t.Fatalf("b=%d: WithAppendedRow differs from fresh encoding", b)
		}
		if ap.Count() != len(rows)+1 {
			t.Fatalf("b=%d: append count %d", b, ap.Count())
		}
		// Remove each position: derived store byte-identical to fresh.
		for rm := 0; rm < len(rows); rm++ {
			dp := p.WithRemovedRow(rm)
			want := NewPackedRows(len(rows)-1, dim, b)
			k := 0
			for i, row := range rows {
				if i == rm {
					continue
				}
				want.EncodeRow(k, row)
				k++
			}
			if !dp.Equal(want) {
				t.Fatalf("b=%d: WithRemovedRow(%d) differs from fresh encoding", b, rm)
			}
		}
		// Receiver untouched by derivations.
		for i, row := range rows {
			if !p.EqualRow(i, row) {
				t.Fatalf("b=%d: derivation mutated receiver row %d", b, i)
			}
		}
	}
}

func TestPackedRowsSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := randomRows(rng, 23, 11, 6)
	p := NewPackedRows(len(rows), 11, 6)
	for i, row := range rows {
		p.EncodeRow(i, row)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Fatal("round trip lost data")
	}
	if got.Count() != 23 || got.Dim() != 11 || got.BitsPerDim() != 6 {
		t.Fatalf("metadata lost: count=%d dim=%d b=%d", got.Count(), got.Dim(), got.BitsPerDim())
	}
}

func TestReadRowsRejectsGarbage(t *testing.T) {
	valid := func() []byte {
		p := NewPackedRows(4, 6, 5)
		row := []uint8{1, 2, 3, 4, 5, 6}
		for i := 0; i < 4; i++ {
			p.EncodeRow(i, row)
		}
		var buf bytes.Buffer
		p.Write(&buf)
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXXXXXXXXXXXXXXXXXXXXXX"),
		"truncated": valid()[:len(valid())-3],
		"bad bits": func() []byte {
			d := valid()
			d[4] = 99
			return d
		}(),
		"nonzero padding": func() []byte {
			// b=5, dim=6 → one word per row, bits 30..63 are padding.
			d := valid()
			d[len(d)-1] |= 0x80
			return d
		}(),
	}
	for name, data := range cases {
		if _, err := ReadRows(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
	// A stream of the retired contiguous layout ('B''V''1' 0 magic, b=4,
	// dim=3, count=2, one payload word) is rejected by its magic.
	old := []byte{
		'B', 'V', '1', 0,
		4, 0, 0, 0,
		3, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0, 0,
		0x21, 0x43, 0x65, 0, 0, 0, 0, 0,
	}
	if _, err := ReadRows(bytes.NewReader(old)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("ReadRows accepted a contiguous-layout stream: %v", err)
	}
}

func TestPackedRowsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("b=0", func() { NewPackedRows(1, 1, 0) })
	mustPanic("b too big", func() { NewPackedRows(1, 1, MaxBitsPerDim+1) })
	mustPanic("negative count", func() { NewPackedRows(-1, 1, 4) })
	mustPanic("zero dim", func() { NewPackedRows(1, 0, 4) })
	mustPanic("value overflow", func() { NewPackedRows(1, 1, 4).EncodeRow(0, []uint8{16}) })
	mustPanic("short encode", func() { NewPackedRows(1, 3, 4).EncodeRow(0, make([]uint8, 2)) })
	mustPanic("short decode", func() { NewPackedRows(1, 3, 4).DecodeRow(0, make([]uint8, 2)) })
	mustPanic("remove out of range", func() { NewPackedRows(1, 3, 4).WithRemovedRow(1) })
}

// DecodeRow writes row i into dst, which must have length Dim, and
// returns dst: the tests' reference decoder for the fixed-stride layout.
func (p *PackedRows) DecodeRow(i int, dst []uint8) []uint8 {
	if len(dst) != p.dim {
		panic(fmt.Sprintf("bits: decode buffer length %d, want %d", len(dst), p.dim))
	}
	mask := uint64(1)<<p.bitsPerDim - 1
	rw := p.Row(i)
	wi, c := 0, 0
	w := rw[0]
	for j := range dst {
		dst[j] = uint8(w & mask)
		w >>= p.bitsPerDim
		c++
		if c == p.codesPerWd && j+1 < p.dim {
			wi++
			w, c = rw[wi], 0
		}
	}
	return dst
}
