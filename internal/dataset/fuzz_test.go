package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadBinary ensures the binary parser never panics or over-allocates
// on arbitrary input, and that valid round-trips survive.
func FuzzReadBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	ds := GenerateProducts(rng, Uniform, 20, 3, 100)
	var valid bytes.Buffer
	if err := WriteBinary(&valid, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("GRD1garbage"))
	f.Add(valid.Bytes()[:10])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Successfully parsed data must be structurally sound.
		if got.Dim <= 0 {
			t.Fatalf("parsed dataset with dim %d", got.Dim)
		}
		for _, p := range got.Points {
			if len(p) != got.Dim {
				t.Fatal("ragged parse")
			}
		}
		// And must round-trip.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := readBinary(&buf)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatal("round trip changed cardinality")
		}
	})
}

// FuzzReadCSV ensures the CSV parser is panic-free and accepts only
// rectangular numeric data.
func FuzzReadCSV(f *testing.F) {
	f.Add("# dim=2 range=10\n1,2\n3,4\n")
	f.Add("1,2,3\n")
	f.Add("")
	f.Add("a,b\n")
	f.Add("1\n1,2\n")
	f.Fuzz(func(t *testing.T, s string) {
		ds, err := ReadCSV(strings.NewReader(s))
		if err != nil {
			return
		}
		if ds.Dim <= 0 {
			t.Fatalf("parsed CSV with dim %d", ds.Dim)
		}
		for _, p := range ds.Points {
			if len(p) != ds.Dim {
				t.Fatal("ragged CSV parse")
			}
		}
	})
}
