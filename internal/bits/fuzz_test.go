package bits

import (
	"bytes"
	"testing"
)

// FuzzRead ensures the packed-row parser never panics and that any
// successfully parsed store round-trips.
func FuzzRead(f *testing.F) {
	p := NewPackedRows(5, 3, 6)
	for i := 0; i < 5; i++ {
		p.EncodeRow(i, []uint8{uint8(i * 3), uint8(i*3 + 1), uint8(i*3 + 2)})
	}
	var valid bytes.Buffer
	if err := p.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadRows(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Dim() <= 0 || got.BitsPerDim() <= 0 {
			t.Fatalf("parsed implausible store: %d dims, %d bits", got.Dim(), got.BitsPerDim())
		}
		var buf bytes.Buffer
		if err := got.Write(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadRows(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !again.Equal(got) {
			t.Fatal("round trip changed the store")
		}
	})
}
