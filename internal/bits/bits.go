// Package bits implements the bit-string compression of approximate vectors
// described in Section 3.2 of the paper: with n = 2^b value-range partitions
// per dimension, each d-dimensional approximate vector is stored as b-bit
// codes in word-aligned rows, roughly b/64 of the original 64-bit float
// data.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxBitsPerDim bounds b; 16 bits allows n up to 65536 partitions, far more
// than the paper's maximum of 128 (b = 7).
const MaxBitsPerDim = 16

// PackedRows is a fixed-stride, word-aligned store of approximate
// vectors designed so hot loops can classify rows directly on packed
// words. It trades a few padding bits over a contiguous b·d-bit layout
// for three properties:
//
//   - Every row starts at a word boundary and occupies exactly
//     WordsPerRow() words, so row r is words[r·wpr : (r+1)·wpr] — a
//     branch-free fixed-stride slice, the layout an mmap-able section
//     wants (ROADMAP item 4).
//   - No code straddles a word: a word holds ⌊64/b⌋ codes and the
//     remaining 64 mod (b·⌊64/b⌋) bits are zero padding, so extraction
//     is one shift and one mask per code with no spill branch.
//   - Rows of equal content are bit-identical words, so derived stores
//     (append/remove of one row) are byte-identical to re-encoding —
//     the property the copy-on-write grouping splices rely on.
type PackedRows struct {
	bitsPerDim  int
	dim         int
	count       int
	codesPerWd  int // ⌊64/b⌋ codes per word
	wordsPerRow int // ⌈dim / codesPerWd⌉
	words       []uint64
}

// NewPackedRows allocates storage for count rows of dim codes at b bits
// per code. It panics on invalid parameters, since the values come from
// programmatic configuration, not user input.
func NewPackedRows(count, dim, b int) *PackedRows {
	if b <= 0 || b > MaxBitsPerDim {
		panic(fmt.Sprintf("bits: bitsPerDim %d out of (0, %d]", b, MaxBitsPerDim))
	}
	if count < 0 || dim <= 0 {
		panic(fmt.Sprintf("bits: invalid shape count=%d dim=%d", count, dim))
	}
	cpw := 64 / b
	wpr := (dim + cpw - 1) / cpw
	return &PackedRows{
		bitsPerDim:  b,
		dim:         dim,
		count:       count,
		codesPerWd:  cpw,
		wordsPerRow: wpr,
		words:       make([]uint64, count*wpr),
	}
}

// Count returns the number of rows.
func (p *PackedRows) Count() int { return p.count }

// Dim returns the number of codes per row.
func (p *PackedRows) Dim() int { return p.dim }

// BitsPerDim returns b.
func (p *PackedRows) BitsPerDim() int { return p.bitsPerDim }

// CodesPerWord returns ⌊64/b⌋, the number of codes each word holds.
func (p *PackedRows) CodesPerWord() int { return p.codesPerWd }

// WordsPerRow returns the fixed per-row stride in words.
func (p *PackedRows) WordsPerRow() int { return p.wordsPerRow }

// Words returns the flat word store (Count()·WordsPerRow() words,
// row-major), for hot loops that slice it directly. Not to be modified.
func (p *PackedRows) Words() []uint64 { return p.words }

// Row returns the words of row i. The slice aliases the store and must
// not be modified.
func (p *PackedRows) Row(i int) []uint64 {
	return p.words[i*p.wordsPerRow : (i+1)*p.wordsPerRow]
}

// packRowWords encodes row (codes < 1<<b) into dst[0:wpr] using the
// fixed-stride no-straddle layout. It panics on an oversized code.
func packRowWords(row []uint8, b, cpw int, dst []uint64) {
	var w uint64
	c, wi := 0, 0
	for _, v := range row {
		if int(v) >= 1<<b {
			panic(fmt.Sprintf("bits: value %d does not fit in %d bits", v, b))
		}
		w |= uint64(v) << (c * b)
		c++
		if c == cpw {
			dst[wi] = w
			wi++
			w, c = 0, 0
		}
	}
	if c > 0 {
		dst[wi] = w
	}
}

// EncodeRow stores the cell row (values < 1<<b) as row i.
func (p *PackedRows) EncodeRow(i int, row []uint8) {
	if len(row) != p.dim {
		panic(fmt.Sprintf("bits: encode buffer length %d, want %d", len(row), p.dim))
	}
	packRowWords(row, p.bitsPerDim, p.codesPerWd, p.Row(i))
}

// EqualRow reports whether row i equals the unpacked cell row, comparing
// word at a time: each group of CodesPerWord codes is packed into one
// word on the fly and compared against the stored word, so the test costs
// WordsPerRow comparisons instead of Dim byte loads.
func (p *PackedRows) EqualRow(i int, row []uint8) bool {
	if len(row) != p.dim {
		return false
	}
	b, cpw := p.bitsPerDim, p.codesPerWd
	rw := p.Row(i)
	var w uint64
	c, wi := 0, 0
	for _, v := range row {
		w |= uint64(v) << (c * b)
		c++
		if c == cpw {
			if rw[wi] != w {
				return false
			}
			wi++
			w, c = 0, 0
		}
	}
	if c > 0 && rw[wi] != w {
		return false
	}
	return true
}

// WithAppendedRow derives a PackedRows with row appended. The receiver
// is untouched; the result's words are byte-identical to re-encoding the
// full mutated row set (rows are word-aligned, so the append is a flat
// copy plus one encoded row).
func (p *PackedRows) WithAppendedRow(row []uint8) *PackedRows {
	if len(row) != p.dim {
		panic(fmt.Sprintf("bits: append row length %d, want %d", len(row), p.dim))
	}
	np := &PackedRows{
		bitsPerDim:  p.bitsPerDim,
		dim:         p.dim,
		count:       p.count + 1,
		codesPerWd:  p.codesPerWd,
		wordsPerRow: p.wordsPerRow,
		words:       make([]uint64, (p.count+1)*p.wordsPerRow),
	}
	copy(np.words, p.words)
	packRowWords(row, p.bitsPerDim, p.codesPerWd, np.words[p.count*p.wordsPerRow:])
	return np
}

// WithRemovedRow derives a PackedRows without row i; rows after i shift
// down by one. The receiver is untouched.
func (p *PackedRows) WithRemovedRow(i int) *PackedRows {
	if i < 0 || i >= p.count {
		panic(fmt.Sprintf("bits: removed row %d out of range [0, %d)", i, p.count))
	}
	np := &PackedRows{
		bitsPerDim:  p.bitsPerDim,
		dim:         p.dim,
		count:       p.count - 1,
		codesPerWd:  p.codesPerWd,
		wordsPerRow: p.wordsPerRow,
		words:       make([]uint64, (p.count-1)*p.wordsPerRow),
	}
	copy(np.words, p.words[:i*p.wordsPerRow])
	copy(np.words[i*p.wordsPerRow:], p.words[(i+1)*p.wordsPerRow:])
	return np
}

// Equal reports whether two stores have identical shape and words.
func (p *PackedRows) Equal(q *PackedRows) bool {
	if p.bitsPerDim != q.bitsPerDim || p.dim != q.dim || p.count != q.count {
		return false
	}
	for i, w := range p.words {
		if q.words[i] != w {
			return false
		}
	}
	return true
}

// Serialization format (little endian):
//
//	magic  uint32 'R''W''1' 0
//	b      uint32
//	dim    uint32
//	count  uint64
//	words  count·WordsPerRow × uint64
//
// The fixed-stride layout is fully determined by b and dim, so no extra
// header fields are needed.

const packedRowsMagic = 0x00315752

// ErrBadFormat reports a corrupt packed-vector stream.
var ErrBadFormat = errors.New("bits: bad file format")

// Write serializes p.
func (p *PackedRows) Write(w io.Writer) error {
	hdr := make([]byte, 4+4+4+8)
	binary.LittleEndian.PutUint32(hdr[0:], packedRowsMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.bitsPerDim))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(p.dim))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(p.count))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, word := range p.words {
		binary.LittleEndian.PutUint64(buf, word)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadRows deserializes a PackedRows written by (*PackedRows).Write.
func ReadRows(r io.Reader) (*PackedRows, error) {
	hdr := make([]byte, 4+4+4+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != packedRowsMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	b := int(binary.LittleEndian.Uint32(hdr[4:]))
	dim := int(binary.LittleEndian.Uint32(hdr[8:]))
	count := binary.LittleEndian.Uint64(hdr[12:])
	if b <= 0 || b > MaxBitsPerDim || dim <= 0 || dim > 1<<16 || count > 1<<33 {
		return nil, fmt.Errorf("%w: implausible header b=%d dim=%d count=%d", ErrBadFormat, b, dim, count)
	}
	cpw := 64 / b
	wpr := (dim + cpw - 1) / cpw
	// Read the payload incrementally so a corrupt header cannot force a
	// huge up-front allocation; the words slice only grows as data
	// actually arrives.
	totalWords := count * uint64(wpr)
	initial := totalWords
	if initial > 1<<16 {
		initial = 1 << 16
	}
	words := make([]uint64, 0, initial)
	buf := make([]byte, 8)
	for i := uint64(0); i < totalWords; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated at word %d: %v", ErrBadFormat, i, err)
		}
		words = append(words, binary.LittleEndian.Uint64(buf))
	}
	p := &PackedRows{bitsPerDim: b, dim: dim, count: int(count), codesPerWd: cpw, wordsPerRow: wpr, words: words}
	// Padding bits must be zero: rows are compared word-at-a-time, so
	// nonzero padding would break EqualRow/Equal on otherwise-equal rows.
	if pad := uint(cpw * b); pad < 64 || dim%cpw != 0 {
		if err := p.checkPadding(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// RowsFromWords builds a PackedRows view over an existing word store —
// the persist layer's constructor: words may alias a mapped GRI3
// section and is adopted without copying, so it must not be modified
// afterward. Unlike NewPackedRows this returns an error, because the
// parameters come from a file, not program configuration.
//
// With checked set the padding bits are verified zero exactly as
// ReadRows verifies a stream (nonzero padding would break EqualRow on
// otherwise-equal rows). The mmap load path passes false: the scan
// touches every word and the file is trusted — see grid.GroupedFromParts
// for the same trade.
func RowsFromWords(count, dim, b int, words []uint64, checked bool) (*PackedRows, error) {
	if b <= 0 || b > MaxBitsPerDim || dim <= 0 || dim > 1<<16 || count < 0 || uint64(count) > 1<<33 {
		return nil, fmt.Errorf("%w: implausible shape b=%d dim=%d count=%d", ErrBadFormat, b, dim, count)
	}
	cpw := 64 / b
	wpr := (dim + cpw - 1) / cpw
	if len(words) != count*wpr {
		return nil, fmt.Errorf("%w: word store has %d words, want %d", ErrBadFormat, len(words), count*wpr)
	}
	p := &PackedRows{bitsPerDim: b, dim: dim, count: count, codesPerWd: cpw, wordsPerRow: wpr, words: words}
	if pad := uint(cpw * b); checked && (pad < 64 || dim%cpw != 0) {
		if err := p.checkPadding(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkPadding verifies every padding bit in the store is zero.
func (p *PackedRows) checkPadding() error {
	b, cpw, wpr := p.bitsPerDim, p.codesPerWd, p.wordsPerRow
	// Full words carry cpw codes; the last word of each row carries the
	// remainder. Bits above the carried codes must be zero.
	fullMask := ^uint64(0)
	if cpw*b < 64 {
		fullMask = uint64(1)<<(cpw*b) - 1
	}
	lastCodes := p.dim - (wpr-1)*cpw
	lastMask := ^uint64(0)
	if lastCodes*b < 64 {
		lastMask = uint64(1)<<(lastCodes*b) - 1
	}
	for r := 0; r < p.count; r++ {
		row := p.words[r*wpr : (r+1)*wpr]
		for wi, w := range row {
			m := fullMask
			if wi == wpr-1 {
				m = lastMask
			}
			if w&^m != 0 {
				return fmt.Errorf("%w: nonzero padding bits in row %d", ErrBadFormat, r)
			}
		}
	}
	return nil
}
