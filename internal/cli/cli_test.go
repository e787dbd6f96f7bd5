package cli

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func genFiles(t *testing.T) (pPath, wPath string) {
	t.Helper()
	dir := t.TempDir()
	pPath = filepath.Join(dir, "p.grd")
	wPath = filepath.Join(dir, "w.grd")
	if _, err := Generate(GenOptions{Kind: "products", Dist: "UN", N: 500, D: 4, Seed: 1, Out: pPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(GenOptions{Kind: "prefs", Dist: "UN", N: 200, D: 4, Seed: 2, Out: wPath}); err != nil {
		t.Fatal(err)
	}
	return pPath, wPath
}

func TestGenerateAndLoadBinary(t *testing.T) {
	pPath, _ := genFiles(t)
	ds, err := LoadSet(pPath)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 || ds.Dim != 4 {
		t.Fatalf("loaded %d×%d", ds.Len(), ds.Dim)
	}
}

func TestGenerateCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.csv")
	msg, err := Generate(GenOptions{Kind: "products", Dist: "CL", N: 100, D: 3, Seed: 3, Out: path, Format: "csv"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "100 products") {
		t.Errorf("message: %q", msg)
	}
	ds, err := LoadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 100 {
		t.Fatalf("CSV round trip: %d rows", ds.Len())
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []GenOptions{
		{Kind: "products", Dist: "UN", N: 10, D: 2},                                    // missing out
		{Kind: "products", Dist: "UN", N: 0, D: 2, Out: "x"},                           // n=0
		{Kind: "bogus", Dist: "UN", N: 10, D: 2, Out: filepath.Join(t.TempDir(), "x")}, // bad kind
		{Kind: "products", Dist: "UN", N: 10, D: 2, Out: "/nonexistent-dir/file"},      // bad path
		{Kind: "products", Dist: "UN", N: 10, D: 2, Out: "x", Format: "parquet"},       // bad format
	}
	for i, opts := range cases {
		if _, err := Generate(opts); err == nil {
			t.Errorf("case %d should fail: %+v", i, opts)
		}
	}
	// A failed Generate must not leave its output file behind (the bad
	// -format case used to litter an empty "x" in the working directory).
	if _, err := os.Stat("x"); !os.IsNotExist(err) {
		os.Remove("x")
		t.Error(`failed Generate left file "x" behind`)
	}
}

func TestRunQueryRTKAndRKR(t *testing.T) {
	pPath, wPath := genFiles(t)
	base := QueryOptions{
		PPath: pPath, WPath: wPath, K: 10, QIndex: 0,
		N: 16, Capacity: 16, Limit: 5, ShowStats: true,
	}
	for _, typ := range []string{"rtk", "rkr"} {
		for _, algoName := range []string{"gir", "sparse", "sim", "brute"} {
			opts := base
			opts.Type = typ
			opts.Algo = algoName
			var buf bytes.Buffer
			if err := RunQueryCtx(context.Background(), &buf, opts); err != nil {
				t.Fatalf("%s/%s: %v", typ, algoName, err)
			}
			out := buf.String()
			if !strings.Contains(out, strings.ToUpper(typ)) {
				t.Errorf("%s/%s output missing header: %q", typ, algoName, out)
			}
			if !strings.Contains(out, "stats:") {
				t.Errorf("%s/%s output missing stats", typ, algoName)
			}
		}
	}
	// Tree algorithms on their supported query type.
	for _, c := range []struct{ typ, algoName string }{{"rtk", "bbr"}, {"rtk", "rta"}, {"rkr", "mpa"}} {
		opts := base
		opts.Type = c.typ
		opts.Algo = c.algoName
		var buf bytes.Buffer
		if err := RunQueryCtx(context.Background(), &buf, opts); err != nil {
			t.Fatalf("%s/%s: %v", c.typ, c.algoName, err)
		}
	}
}

func TestRunQueryInlineVector(t *testing.T) {
	pPath, wPath := genFiles(t)
	var buf bytes.Buffer
	err := RunQueryCtx(context.Background(), &buf, QueryOptions{
		PPath: pPath, WPath: wPath, Type: "rkr", Algo: "gir", K: 3,
		QIndex: -1, QRaw: "100, 200, 300, 400", N: 16, Capacity: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "position") {
		t.Errorf("output: %q", buf.String())
	}
}

func TestRunQueryErrors(t *testing.T) {
	pPath, wPath := genFiles(t)
	base := QueryOptions{PPath: pPath, WPath: wPath, Type: "rtk", Algo: "gir", K: 5, QIndex: 0, N: 16, Capacity: 16}
	cases := []func(*QueryOptions){
		func(o *QueryOptions) { o.PPath = "" },
		func(o *QueryOptions) { o.PPath = "/missing" },
		func(o *QueryOptions) { o.Type = "bogus" },
		func(o *QueryOptions) { o.Algo = "mpa" },                    // mpa cannot answer rtk
		func(o *QueryOptions) { o.Type = "rkr"; o.Algo = "bbr" },    // bbr cannot answer rkr
		func(o *QueryOptions) { o.QIndex = -1 },                     // no query at all
		func(o *QueryOptions) { o.QIndex = 100000 },                 // out of range
		func(o *QueryOptions) { o.QIndex = -1; o.QRaw = "1,2" },     // wrong dim
		func(o *QueryOptions) { o.QIndex = -1; o.QRaw = "1,2,x,4" }, // not numeric
	}
	for i, mutate := range cases {
		opts := base
		mutate(&opts)
		var buf bytes.Buffer
		if err := RunQueryCtx(context.Background(), &buf, opts); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestRunQueryMismatchedDims(t *testing.T) {
	dir := t.TempDir()
	pPath := filepath.Join(dir, "p.grd")
	wPath := filepath.Join(dir, "w.grd")
	if _, err := Generate(GenOptions{Kind: "products", Dist: "UN", N: 50, D: 3, Seed: 1, Out: pPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(GenOptions{Kind: "prefs", Dist: "UN", N: 50, D: 5, Seed: 2, Out: wPath}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := RunQueryCtx(context.Background(), &buf, QueryOptions{PPath: pPath, WPath: wPath, Type: "rtk", Algo: "gir", K: 5, QIndex: 0, N: 16, Capacity: 16})
	if err == nil || !strings.Contains(err.Error(), "dimension mismatch") {
		t.Errorf("err = %v", err)
	}
}

func TestFormatVector(t *testing.T) {
	if got := FormatVector([]float64{1, 2.5}); got != "(1, 2.5)" {
		t.Errorf("FormatVector = %q", got)
	}
}

func TestRunQueryExplain(t *testing.T) {
	pPath, wPath := genFiles(t)
	base := QueryOptions{
		PPath: pPath, WPath: wPath, K: 5, QIndex: 0,
		N: 16, Capacity: 16, Limit: 3, Algo: "gir", Explain: true,
	}
	for _, typ := range []string{"rtk", "rkr"} {
		opts := base
		opts.Type = typ
		var buf bytes.Buffer
		if err := RunQueryCtx(context.Background(), &buf, opts); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		out := buf.String()
		// Results first, then the EXPLAIN span tree with the full
		// pipeline phases and the scan's case breakdown.
		if !strings.Contains(out, strings.ToUpper(typ)) {
			t.Errorf("%s explain output missing results header:\n%s", typ, out)
		}
		wants := []string{
			"trace ", "load_data", "build_index", "scan",
			"case1_filtered=", "case2_filtered=", "case3_refined=",
			"filter_rate=", "products=500", "preferences=200", "k=5",
		}
		if typ == "rkr" {
			// RKR always produces k results to merge; RTK's answer set may
			// legitimately be empty, skipping the merge phase.
			wants = append(wants, "merge")
		}
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s explain output missing %q:\n%s", typ, want, out)
			}
		}
		if strings.Contains(out, "trace not found") {
			t.Errorf("%s explain trace was not captured:\n%s", typ, out)
		}
	}
	// The parallel path adds per-worker spans to the tree.
	par := base
	par.Type = "rkr"
	par.Parallel = 3
	var buf bytes.Buffer
	if err := RunQueryCtx(context.Background(), &buf, par); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "scan.worker") {
		t.Errorf("parallel explain output missing worker spans:\n%s", out)
	}
	// -explain requires gir: other algorithms have no span instrumentation.
	bad := base
	bad.Type = "rtk"
	bad.Algo = "brute"
	if err := RunQueryCtx(context.Background(), &bytes.Buffer{}, bad); err == nil || !strings.Contains(err.Error(), "-explain") {
		t.Errorf("-explain with -algo brute should fail, got %v", err)
	}
}

func TestRunQueryParallel(t *testing.T) {
	pPath, wPath := genFiles(t)
	base := QueryOptions{
		PPath: pPath, WPath: wPath, K: 10, QIndex: 0,
		N: 16, Capacity: 16, Limit: 0,
	}
	for _, typ := range []string{"rtk", "rkr"} {
		seq := base
		seq.Type = typ
		seq.Algo = "gir"
		var want bytes.Buffer
		if err := RunQueryCtx(context.Background(), &want, seq); err != nil {
			t.Fatal(err)
		}
		par := seq
		par.Parallel = 4
		var got bytes.Buffer
		if err := RunQueryCtx(context.Background(), &got, par); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s -parallel 4 output differs from sequential:\n%s\nvs\n%s",
				typ, got.String(), want.String())
		}
	}
	// -parallel rejects negatives and non-gir algorithms.
	bad := base
	bad.Type = "rtk"
	bad.Algo = "gir"
	bad.Parallel = -1
	if err := RunQueryCtx(context.Background(), &bytes.Buffer{}, bad); err == nil {
		t.Error("negative -parallel should fail")
	}
	bad.Parallel = 4
	bad.Algo = "sim"
	if err := RunQueryCtx(context.Background(), &bytes.Buffer{}, bad); err == nil {
		t.Error("-parallel with -algo sim should fail")
	}
}
