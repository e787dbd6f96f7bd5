package gridrank

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReadIndex ensures the index parser never panics, rejects every
// malformed stream with ErrBadIndexFile (callers branch on it to tell
// corruption from I/O failures), and that parsed indexes answer queries
// without crashing.
func FuzzReadIndex(f *testing.F) {
	P, err := GenerateProducts(51, Uniform, 30, 3)
	if err != nil {
		f.Fatal(err)
	}
	W, err := GeneratePreferences(52, Uniform, 10, 3)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: 8})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := ix.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:20])
	f.Add([]byte("GRI1aaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	// Every truncation of the header region.
	for cut := 1; cut < 16; cut++ {
		f.Add(valid.Bytes()[:cut])
	}
	// Corrupt GRI3 header fields on an otherwise valid stream: magic,
	// grid partitions (0 and absurd), the reserved offset-8 field (the
	// retired packed width, small and absurd), a count field blown up.
	corrupt := func(off int, val uint32) []byte {
		b := append([]byte(nil), valid.Bytes()...)
		binary.LittleEndian.PutUint32(b[off:], val)
		return b
	}
	f.Add(corrupt(0, 0))
	f.Add(corrupt(0, 0x31495248))
	f.Add(corrupt(4, 0))
	f.Add(corrupt(4, 1<<30))
	f.Add(corrupt(8, 3))
	f.Add(corrupt(8, 9))
	f.Add(corrupt(8, 1<<20))
	f.Add(corrupt(24, ^uint32(0)))
	b := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint64(b[56:], ^uint64(0)) // NaN rangeP
	f.Add(b)
	// Structure-aware GRI3 seeds: truncated at the section table, a
	// tampered table entry (header CRC mismatch), a misaligned section
	// offset and a stretched fileSize with the header CRC re-signed so
	// rejection must come from the canonical-layout equality, a section
	// payload flip (section CRC mismatch), nonzero inter-section padding,
	// and a truncated final section.
	resign := resignGRI3
	f.Add(valid.Bytes()[:gri3HeaderLen])
	f.Add(valid.Bytes()[:gri3HeaderLen+gri3EntryLen*5])
	b = append([]byte(nil), valid.Bytes()...)
	b[gri3HeaderLen+8] ^= 0x44 // first section's offset, CRC not re-signed
	f.Add(b)
	b = append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint64(b[gri3HeaderLen+8:], gri3Align*3)
	f.Add(resign(b))
	b = append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint64(b[72:], binary.LittleEndian.Uint64(b[72:])+gri3Align)
	f.Add(resign(b))
	b = append([]byte(nil), valid.Bytes()...)
	b[gri3Align+5] ^= 0x01 // inside the first payload
	f.Add(b)
	b = append([]byte(nil), valid.Bytes()...)
	b[gri3Align-1] = 0xAA // padding byte before the first section
	f.Add(b)
	f.Add(valid.Bytes()[:valid.Len()-7])
	// A stream shaped like a retired packed-layout file plus blind flips
	// landing in its extra section (the offsets, relative to the unpacked
	// stream's length, fall inside the packed stream's payload region):
	// rejection must come without a panic.
	packed := packedGRI3(valid.Bytes(), 4)
	f.Add(packed)
	f.Add(packed[:valid.Len()]) // section truncated away
	f.Add(packed[:len(packed)-3])
	for _, off := range []int{0, 8, 16, 40} {
		b := append([]byte(nil), packed...)
		b[valid.Len()+off] ^= 0x11
		f.Add(b)
	}
	// Header claims packed over an unpacked image.
	b = append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(b[8:], 4)
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadIndexFile) {
				t.Fatalf("ReadIndex error %v does not wrap ErrBadIndexFile", err)
			}
			return
		}
		// A successfully parsed index must answer queries.
		q := got.Products()[0]
		if _, err := got.ReverseKRanksCtx(context.Background(), q, 1); err != nil {
			t.Fatalf("parsed index cannot query: %v", err)
		}
	})
}
