package gridrank

// GRI3 persistence tests: the heap/mmap equivalence harness, the
// durability and allocation regression tests, the frozen on-disk bytes,
// rejection of retired formats, and structure-aware corruption
// rejection (complementing FuzzReadIndex's blind mutations).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// canMmap reports whether LoadMmap actually maps on this platform (the
// stub falls back to the heap loader).
func canMmap() bool { return runtime.GOOS == "linux" || runtime.GOOS == "darwin" }

// gri3Index builds a small index, saved and reloaded by most tests in
// this file.
func gri3Index(t testing.TB) *Index {
	t.Helper()
	P, err := GenerateProducts(31, Clustered, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(32, Uniform, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestHeapMmapEquivalence is the persistence harness: the heap-loaded
// and mmap-loaded views of one saved file must answer byte-identically
// to each other and to the index that wrote the file, at every worker
// count. It runs under -race in CI (root package race pass).
func TestHeapMmapEquivalence(t *testing.T) {
	// bits=0 names the unpacked row layout, the one the index stores.
	t.Run("bits=0", func(t *testing.T) {
		ix := gri3Index(t)
		path := filepath.Join(t.TempDir(), "ix.gri3")
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		heap, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := LoadMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		if heap.Resident() != "heap" {
			t.Fatalf("heap load resident %q", heap.Resident())
		}
		if canMmap() && mm.Resident() != "mmap" {
			t.Fatalf("mmap load resident %q", mm.Resident())
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, qi := range []int{0, 123, 299} {
				q := ix.Products()[qi]
				wantKR, err := ix.ReverseKRanksCtx(context.Background(), q, 9, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				wantTK, err := ix.ReverseTopKCtx(context.Background(), q, 9, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for name, l := range map[string]*Index{"heap": heap, "mmap": mm} {
					gotKR, err := l.ReverseKRanksCtx(context.Background(), q, 9, WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					gotTK, err := l.ReverseTopKCtx(context.Background(), q, 9, WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprintf("%+v/%+v", gotKR, gotTK) != fmt.Sprintf("%+v/%+v", wantKR, wantTK) {
						t.Fatalf("workers %d, q %d, %s: answers diverge", workers, qi, name)
					}
				}
			}
		}
	})
}

// TestMmapIndexMutatesAndCheckpoints: copy-on-write epochs layer over a
// mapped snapshot exactly as over a heap one — same answers, same
// re-serialization — and Checkpoint republishes the index from the
// newly written file without disturbing the epoch counter.
func TestMmapIndexMutatesAndCheckpoints(t *testing.T) {
	ix := gri3Index(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.gri3")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	mm, err := LoadMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	heap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(x *Index) {
		if _, err := x.InsertProduct(Vector{0.5, 0.25, 0.75, 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := x.DeleteProduct(7); err != nil {
			t.Fatal(err)
		}
		if _, err := x.InsertPreference(Vector{0.4, 0.3, 0.2, 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := x.DeletePreference(3); err != nil {
			t.Fatal(err)
		}
	}
	mutate(mm)
	mutate(heap)
	var a, b bytes.Buffer
	if _, err := mm.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := heap.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("mutated mmap index serializes differently from its heap twin")
	}

	q := mm.Products()[11]
	want, err := mm.ReverseKRanksCtx(context.Background(), q, 6)
	if err != nil {
		t.Fatal(err)
	}
	seq := mm.Epoch()
	ckpt := filepath.Join(dir, "ckpt.gri3")
	if err := mm.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if mm.Epoch() != seq {
		t.Fatalf("Checkpoint moved the epoch %d → %d", seq, mm.Epoch())
	}
	if canMmap() && mm.Resident() != "mmap" {
		t.Fatalf("post-checkpoint resident %q", mm.Resident())
	}
	got, err := mm.ReverseKRanksCtx(context.Background(), q, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("Checkpoint changed answers: %+v vs %+v", got, want)
	}
	// The checkpoint file is a complete, loadable index.
	re, err := Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumProducts() != mm.NumProducts() || re.NumPreferences() != mm.NumPreferences() {
		t.Fatal("checkpoint file lost elements")
	}
}

// TestSaveSyncsDirectory pins the durability half of the atomic save
// (alongside TestSaveIsAtomic, which pins atomicity): after the rename,
// Save fsyncs the containing directory, and a failing directory sync
// surfaces as the call's error.
func TestSaveSyncsDirectory(t *testing.T) {
	ix := persistIndex(t)
	dir := t.TempDir()
	orig := fsyncDir
	defer func() { fsyncDir = orig }()
	var synced []string
	fsyncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	if err := ix.Save(filepath.Join(dir, "ix.gri3")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("directory syncs = %v, want exactly [%s]", synced, dir)
	}
	boom := errors.New("sync failed")
	fsyncDir = func(string) error { return boom }
	if err := ix.Save(filepath.Join(dir, "ix.gri3")); !errors.Is(err, boom) {
		t.Fatalf("Save swallowed the directory sync failure: %v", err)
	}
}

// TestLoadAllocationCounts pins the O(1)-allocations load paths: the
// heap loader reads the image into one aligned buffer (no per-row
// allocations — the former double-copy through dataset.ReadBinary paid
// one allocation per row), and the mmap loader allocates only views.
// Allocation counts must not scale with the element count.
func TestLoadAllocationCounts(t *testing.T) {
	saved := func(nP int) string {
		t.Helper()
		P, err := GenerateProducts(41, Clustered, nP, 4)
		if err != nil {
			t.Fatal(err)
		}
		W, err := GeneratePreferences(42, Uniform, 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := New(P, W, &Options{GridPartitions: 16})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("ix-%d.gri3", nP))
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	small, big := saved(512), saved(4096)
	for name, open := range map[string]func(string) (*Index, error){"Load": Load, "LoadMmap": LoadMmap} {
		measure := func(path string) float64 {
			return testing.AllocsPerRun(10, func() {
				ix, err := open(path)
				if err != nil {
					t.Fatal(err)
				}
				ix.Close()
			})
		}
		at1, at8 := measure(small), measure(big)
		// 8× the rows must not mean more allocations; allow a little
		// noise, nothing near the +3584 a per-row scheme would add.
		if at8 > at1+32 {
			t.Errorf("%s allocations scale with rows: %.0f at 512 rows, %.0f at 4096", name, at1, at8)
		}
	}
}

// TestWriteToBytesFrozen pins the SHA-256 of WriteTo for a small fixed
// index, fresh and after one of each mutation. The constants were taken
// from the writer before the bit-packed layout was deleted, so they prove
// GRI3 stayed byte-identical; any change to them is a format change.
func TestWriteToBytesFrozen(t *testing.T) {
	ix := gri3Index(t)
	sum := func() string {
		t.Helper()
		var b bytes.Buffer
		if _, err := ix.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b.Bytes())
		return hex.EncodeToString(h[:])
	}
	if got, want := sum(), "d2aef9cc7894faa3a90ea6d3b6228e734f02dbec4e67c02588d0307a63b1934c"; got != want {
		t.Fatalf("fresh index SHA-256 %s, want %s", got, want)
	}
	if _, err := ix.InsertProduct(Vector{0.5, 0.25, 0.75, 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := ix.DeleteProduct(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.InsertPreference(Vector{0.4, 0.3, 0.2, 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := ix.DeletePreference(3); err != nil {
		t.Fatal(err)
	}
	if got, want := sum(), "27d98ae4f2f0429c5eb49874c834bba90a79f4ba5a2431e936b07c27eb16b681"; got != want {
		t.Fatalf("mutated index SHA-256 %s, want %s", got, want)
	}
}

// resignGRI3 recomputes the header CRC of a GRI3 image after a test
// edited its header or section table.
func resignGRI3(b []byte) []byte {
	sc := int(binary.LittleEndian.Uint32(b[16:]))
	crc := crc64.New(gri3CRC)
	crc.Write(b[:80])
	crc.Write(b[gri3HeaderLen : gri3HeaderLen+gri3EntryLen*sc])
	binary.LittleEndian.PutUint64(b[80:], crc.Sum64())
	return b
}

// packedGRI3 gives a valid GRI3 image the shape of a retired
// packed-layout file: the packed width at header offset 8, a sixteenth
// section (the packed rows) in the table and appended after the last
// payload, and the file size and header CRC to match. The table still
// fits the first page, so no other section moves.
func packedGRI3(valid []byte, bits uint32) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), valid...)
	rows := bytes.Repeat([]byte{0x5a}, 64)
	off := gri3Pad(uint64(len(b)))
	ent := b[gri3HeaderLen+15*gri3EntryLen:]
	le.PutUint32(ent[0:], 16)
	le.PutUint64(ent[8:], off)
	le.PutUint64(ent[16:], uint64(len(rows)))
	le.PutUint64(ent[24:], crc64.Checksum(rows, gri3CRC))
	b = append(b, make([]byte, off-uint64(len(b)))...)
	b = append(b, rows...)
	le.PutUint32(b[8:], bits)
	le.PutUint32(b[16:], 16)
	le.PutUint64(b[72:], uint64(len(b)))
	return resignGRI3(b)
}

// TestRetiredFormatsRejected feeds hand-built headers of the retired
// formats to every loader: GRI1/GRI2 magics and GRI3 images whose
// reserved offset-8 field is non-zero (the retired bit-packed layout)
// must fail with ErrBadIndexFile and a message that names the format
// and says how to replace the file.
func TestRetiredFormatsRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := gri3Index(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	legacy := func(magic uint32) []byte {
		// magic, n, rangeP: the head of a version-1 stream; the loaders
		// must decide on the magic alone.
		b := make([]byte, 16)
		binary.LittleEndian.PutUint32(b[0:], magic)
		binary.LittleEndian.PutUint32(b[4:], 16)
		binary.LittleEndian.PutUint64(b[8:], 0x3ff0000000000000)
		return b
	}
	offset8 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(offset8[8:], 1)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"GRI1 magic", legacy(indexMagicV1), "GRI1"},
		{"GRI2 magic", legacy(indexMagicV2), "GRI2"},
		{"GRI2 magic, bare", legacy(indexMagicV2)[:4], "GRI2"},
		{"GRI3 packed 5-bit image", packedGRI3(valid, 5), "offset 8 is 5"},
		{"GRI3 packed 8-bit image", packedGRI3(valid, 8), "offset 8 is 8"},
		{"GRI3 offset 8 set, resigned", resignGRI3(offset8), "offset 8 is 1"},
	}
	dir := t.TempDir()
	loaders := map[string]func(string) (*Index, error){
		"ReadIndex": func(path string) (*Index, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return ReadIndex(f)
		},
		"Load":     Load,
		"LoadMmap": LoadMmap,
	}
	for i, c := range cases {
		path := filepath.Join(dir, fmt.Sprintf("retired-%d.gri", i))
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, load := range loaders {
			ix, err := load(path)
			if err == nil {
				ix.Close()
				t.Errorf("%s/%s: loaded a retired file", c.name, name)
				continue
			}
			msg := err.Error()
			if !errors.Is(err, ErrBadIndexFile) || !strings.Contains(msg, c.want) || !strings.Contains(msg, "rrqindex build") {
				t.Errorf("%s/%s: err = %v, want ErrBadIndexFile naming %q and rrqindex build", c.name, name, err, c.want)
			}
		}
	}
}

// TestGRI3RejectsCorruption drives structure-aware corruptions through
// the untrusted (heap) reader: every byte of a GRI3 file is covered by
// the header CRC, a section CRC, or the zero-padding rule, and layout
// lies are pinned by the canonical-offset equality — re-signing the
// header CRC must not let them through.
func TestGRI3RejectsCorruption(t *testing.T) {
	ix := gri3Index(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	h, err := parseGRI3Header(valid[:gri3HeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	secs, _ := h.layout()
	resign := resignGRI3
	clone := func() []byte { return append([]byte(nil), valid...) }
	cases := map[string][]byte{
		"flipped header byte": func() []byte { b := clone(); b[25] ^= 0x10; return b }(),
		"flipped table byte":  func() []byte { b := clone(); b[gri3HeaderLen+9] ^= 0x10; return b }(),
		"moved section (resigned)": func() []byte {
			b := clone()
			off := binary.LittleEndian.Uint64(b[gri3HeaderLen+8:])
			binary.LittleEndian.PutUint64(b[gri3HeaderLen+8:], off+gri3Align)
			return resign(b)
		}(),
		"shrunk section (resigned)": func() []byte {
			b := clone()
			l := binary.LittleEndian.Uint64(b[gri3HeaderLen+16:])
			binary.LittleEndian.PutUint64(b[gri3HeaderLen+16:], l-8)
			return resign(b)
		}(),
		"swapped section id (resigned)": func() []byte {
			b := clone()
			binary.LittleEndian.PutUint32(b[gri3HeaderLen:], 2)
			return resign(b)
		}(),
		"file size lie (resigned)": func() []byte {
			b := clone()
			binary.LittleEndian.PutUint64(b[72:], h.fileSize+gri3Align)
			return resign(b)
		}(),
		"flipped payload byte": func() []byte {
			b := clone()
			b[secs[secPGMembers-1].offset+2] ^= 0x01
			return b
		}(),
		"nonzero padding": func() []byte {
			b := clone()
			b[secs[0].offset-1] = 0xAA
			return b
		}(),
		"truncated to table": clone()[:gri3HeaderLen+gri3EntryLen*h.sections],
		"truncated section":  clone()[:len(valid)-100],
	}
	for name, data := range cases {
		if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("%s: err = %v, want ErrBadIndexFile", name, err)
		}
	}

	// A stat-backed Load additionally pins the total file length.
	path := filepath.Join(t.TempDir(), "trailing.gri3")
	if err := os.WriteFile(path, append(clone(), 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrBadIndexFile) {
		t.Errorf("trailing garbage after image: Load err = %v, want ErrBadIndexFile", err)
	}

	// The validation split: a payload corruption that breaks no shape
	// invariant is caught by the untrusted reader's section CRCs but
	// deliberately trusted by the mmap reader (which stops at the header
	// CRC and structural checks) — while header corruption stops both.
	if canMmap() {
		flipped := clone()
		flipped[secs[secProducts-1].offset] ^= 0x01 // mantissa bit of one float
		pv := filepath.Join(t.TempDir(), "payload.gri3")
		if err := os.WriteFile(pv, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(pv); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("payload flip: heap Load err = %v, want ErrBadIndexFile", err)
		}
		mm, err := LoadMmap(pv)
		if err != nil {
			t.Errorf("payload flip: structural mmap load rejected it: %v", err)
		} else {
			mm.Close()
		}
		hv := filepath.Join(t.TempDir(), "header.gri3")
		bad := clone()
		bad[30] ^= 0x01
		if err := os.WriteFile(hv, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMmap(hv); !errors.Is(err, ErrBadIndexFile) {
			t.Errorf("header flip: mmap load err = %v, want ErrBadIndexFile", err)
		}
	}
}
