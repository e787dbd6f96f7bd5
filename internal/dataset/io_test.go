package dataset

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridrank/internal/vec"
)

func sameDataset(a, b *Dataset) bool {
	if a.Dim != b.Dim || a.Range != b.Range || a.Len() != b.Len() {
		return false
	}
	for i := range a.Points {
		if !vec.Equal(a.Points[i], b.Points[i]) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := GenerateProducts(rng, Uniform, 300, 7, DefaultRange)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDataset(ds, got) {
		t.Fatal("binary round trip lost data")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	ds := &Dataset{Dim: 3, Range: 5}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 3 || got.Range != 5 || got.Len() != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXXGARBAGEGARBAGEGARBAGE"),
		"truncated header": func() []byte {
			var buf bytes.Buffer
			ds := &Dataset{Dim: 2, Range: 1, Points: []vec.Vector{{0.5, 0.5}}}
			WriteBinary(&buf, ds)
			return buf.Bytes()[:10]
		}(),
		"truncated body": func() []byte {
			var buf bytes.Buffer
			ds := &Dataset{Dim: 2, Range: 1, Points: []vec.Vector{{0.5, 0.5}, {0.1, 0.2}}}
			WriteBinary(&buf, ds)
			return buf.Bytes()[:buf.Len()-8]
		}(),
	}
	for name, data := range cases {
		if _, err := readBinary(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
}

func TestWriteBinaryRejectsInconsistentPoint(t *testing.T) {
	ds := &Dataset{Dim: 2, Range: 1, Points: []vec.Vector{{0.5, 0.5}, {0.1}}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err == nil {
		t.Fatal("inconsistent dimensionality should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := GenerateWeights(rng, Uniform, 100, 5)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDataset(ds, got) {
		t.Fatal("CSV round trip lost data")
	}
}

func TestReadCSVWithoutHeader(t *testing.T) {
	in := "1,2,3\n4,5,6\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 3 || ds.Len() != 2 {
		t.Fatalf("got dim=%d n=%d", ds.Dim, ds.Len())
	}
	if ds.Range < 6 {
		t.Errorf("inferred range %v should cover max value 6", ds.Range)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV should fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged CSV should fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("non-numeric CSV should fail")
	}
}

func TestSaveLoadBinaryFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.grd")
	rng := rand.New(rand.NewSource(3))
	ds := GenerateProducts(rng, Clustered, 200, 4, 100)
	if err := SaveBinary(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDataset(ds, got) {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadBinary(filepath.Join(dir, "missing.grd")); !os.IsNotExist(err) {
		t.Errorf("missing file error = %v", err)
	}
}
