package bits

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeAll returns every row of p, unpacked.
func decodeAll(p *PackedRows) [][]uint8 {
	out := make([][]uint8, p.Count())
	for i := range out {
		out[i] = p.DecodeRow(i, make([]uint8, p.Dim()))
	}
	return out
}

func TestSetGetAllWidths(t *testing.T) {
	for b := 1; b <= 8; b++ {
		rng := rand.New(rand.NewSource(int64(b)))
		want := randomRows(rng, 17, 5, b)
		p := NewPackedRows(len(want), 5, b)
		for i, row := range want {
			p.EncodeRow(i, row)
		}
		for i, row := range decodeAll(p) {
			for j, v := range row {
				if v != want[i][j] {
					t.Fatalf("b=%d: cell (%d,%d) = %d, want %d", b, i, j, v, want[i][j])
				}
			}
		}
	}
}

func TestWordBoundarySpill(t *testing.T) {
	// b=7, dim=10: a word holds 9 codes, so dimension 9 of every row
	// starts the row's second word instead of straddling bit 64.
	p := NewPackedRows(3, 10, 7)
	for i := 0; i < 3; i++ {
		row := make([]uint8, 10)
		for j := range row {
			row[j] = uint8((i*10 + j) % 128)
		}
		p.EncodeRow(i, row)
	}
	for i, row := range decodeAll(p) {
		for j, v := range row {
			if v != uint8((i*10+j)%128) {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, v, (i*10+j)%128)
			}
		}
		if got := p.Row(i)[1]; got != uint64((i*10+9)%128) {
			t.Fatalf("row %d: second word %#x, want dimension 9 alone at bit 0", i, got)
		}
	}
}

func TestSetOverwrites(t *testing.T) {
	p := NewPackedRows(3, 3, 6)
	p.EncodeRow(0, []uint8{63, 0, 63})
	p.EncodeRow(1, []uint8{63, 63, 63})
	p.EncodeRow(2, []uint8{1, 2, 3})
	p.EncodeRow(1, []uint8{0, 21, 0})
	want := [][]uint8{{63, 0, 63}, {0, 21, 0}, {1, 2, 3}}
	for i, row := range decodeAll(p) {
		if !bytes.Equal(row, want[i]) {
			t.Fatalf("row %d = %v, want %v (overwrite disturbed a neighbor?)", i, row, want[i])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := NewPackedRows(4, 8, 5)
	src := []uint8{1, 2, 3, 4, 5, 6, 7, 31}
	p.EncodeRow(2, src)
	if dst := p.DecodeRow(2, make([]uint8, 8)); !bytes.Equal(dst, src) {
		t.Fatalf("decode = %v, want %v", dst, src)
	}
	for _, i := range []int{0, 1, 3} {
		if dst := p.DecodeRow(i, make([]uint8, 8)); !bytes.Equal(dst, make([]uint8, 8)) {
			t.Fatalf("untouched row %d decodes to %v", i, dst)
		}
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("value overflow at b=1", func() { NewPackedRows(1, 2, 1).EncodeRow(0, []uint8{1, 2}) })
	mustPanic("long encode", func() { NewPackedRows(1, 3, 4).EncodeRow(0, make([]uint8, 4)) })
	mustPanic("long decode", func() { NewPackedRows(1, 3, 4).DecodeRow(0, make([]uint8, 4)) })
	mustPanic("short append", func() { NewPackedRows(1, 3, 4).WithAppendedRow(make([]uint8, 2)) })
	mustPanic("remove negative", func() { NewPackedRows(1, 3, 4).WithRemovedRow(-1) })
}

func TestSizeBytesMatchesPaperEstimate(t *testing.T) {
	// Section 3.2: b=6, so an approximate vector costs about 6/64 of the
	// float data. 1000 vectors × 20 dims: floats = 160000 bytes; the
	// word-aligned rows take 2 words each, 16000 bytes.
	p := NewPackedRows(1000, 20, 6)
	floatBytes := 1000 * 20 * 8
	if size := 8 * len(p.Words()); size > floatBytes/10 {
		t.Errorf("packed size %d bytes exceeds 1/10 of float size %d", size, floatBytes)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for b := 1; b <= 8; b++ {
		for _, dim := range []int{1, 7, 64 / b, 64/b + 1} {
			p := NewPackedRows(50, dim, b)
			for i, row := range randomRows(rng, 50, dim, b) {
				p.EncodeRow(i, row)
			}
			var buf bytes.Buffer
			if err := p.Write(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadRows(&buf)
			if err != nil {
				t.Fatalf("b=%d dim=%d: %v", b, dim, err)
			}
			if !got.Equal(p) || got.WordsPerRow() != p.WordsPerRow() {
				t.Fatalf("b=%d dim=%d: round trip changed the store", b, dim)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	// Header-plausibility checks: each stream carries the right magic and
	// a well-formed header length but an impossible shape.
	header := func(b, dim uint32, count uint64) []byte {
		h := make([]byte, 20)
		binary.LittleEndian.PutUint32(h[0:], packedRowsMagic)
		binary.LittleEndian.PutUint32(h[4:], b)
		binary.LittleEndian.PutUint32(h[8:], dim)
		binary.LittleEndian.PutUint64(h[12:], count)
		return h
	}
	for name, data := range map[string][]byte{
		"zero bits":  header(0, 3, 1),
		"zero dim":   header(4, 0, 1),
		"huge dim":   header(4, 1<<17, 1),
		"huge count": header(4, 3, 1<<34),
		"no payload": header(4, 3, 2),
	} {
		if _, err := ReadRows(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
}

// Property: any sequence of row encodings is faithfully read back.
func TestPackedQuick(t *testing.T) {
	f := func(vals []uint8, bSeed uint8) bool {
		b := int(bSeed)%8 + 1
		dim := 3
		count := (len(vals) + dim - 1) / dim
		if count == 0 {
			return true
		}
		p := NewPackedRows(count, dim, b)
		mask := uint8(1<<b - 1)
		want := make([]uint8, count*dim)
		for idx, v := range vals {
			want[idx] = v & mask
		}
		for i := 0; i < count; i++ {
			p.EncodeRow(i, want[i*dim:(i+1)*dim])
		}
		for i, row := range decodeAll(p) {
			if !bytes.Equal(row, want[i*dim:(i+1)*dim]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
