package vec

// The cast layer is the single place the repository reinterprets raw
// bytes as typed slices. The GRI3 index format stores every section as
// fixed-stride little-endian machine words at 8-byte-aligned offsets,
// so on a little-endian host a mapped (or heap-read) file region *is*
// the []float64 / []int32 the algorithms want — zero copies.
// Each cast reports whether the reinterpretation is legal; when it is
// not (misaligned base pointer, or a big-endian host) the caller falls
// back to the element-wise decode helpers below, which always work at
// the cost of one copy. Keeping the unsafe arithmetic here, behind
// alignment checks, is what makes the rest of the mmap path ordinary
// safe Go.

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian, i.e. whether GRI3 sections can be reinterpreted
// in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aligned reports whether b's base pointer is a multiple of align
// (which must be a power of two).
func aligned(b []byte, align uintptr) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))&(align-1) == 0
}

// CastFloat64s reinterprets b as little-endian float64 values without
// copying. ok is false when the cast is illegal (wrong length,
// misaligned base, or big-endian host); callers then fall back to
// DecodeFloat64s.
func CastFloat64s(b []byte) (vals []float64, ok bool) {
	if !hostLittleEndian || len(b)%8 != 0 || !aligned(b, 8) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8), true
}

// CastInt32s reinterprets b as little-endian int32 values without
// copying; see CastFloat64s.
func CastInt32s(b []byte) (vals []int32, ok bool) {
	if !hostLittleEndian || len(b)%4 != 0 || !aligned(b, 4) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4), true
}

// Float64Bytes reinterprets vals as their little-endian byte image
// without copying. ok is false on a big-endian host; callers then fall
// back to EncodeFloat64s. (Go float64 slices are always 8-byte aligned,
// so no alignment check is needed in this direction.)
func Float64Bytes(vals []float64) (b []byte, ok bool) {
	if !hostLittleEndian {
		return nil, false
	}
	if len(vals) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*8), true
}

// Int32Bytes reinterprets vals as little-endian bytes; see Float64Bytes.
func Int32Bytes(vals []int32) (b []byte, ok bool) {
	if !hostLittleEndian {
		return nil, false
	}
	if len(vals) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*4), true
}

// AlignedBytes allocates an n-byte buffer whose base pointer is 8-byte
// aligned (it is backed by a []uint64), so every section read into it at
// a GRI3 page-aligned offset stays castable.
func AlignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)[:n]
}

// DecodeFloat64s is the copying fallback for CastFloat64s: it decodes
// little-endian bytes element-wise into a fresh slice. len(b) must be a
// multiple of 8.
func DecodeFloat64s(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vals
}

// DecodeInt32s is the copying fallback for CastInt32s.
func DecodeInt32s(b []byte) []int32 {
	vals := make([]int32, len(b)/4)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return vals
}

// EncodeFloat64s is the copying fallback for Float64Bytes.
func EncodeFloat64s(vals []float64) []byte {
	b := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

// EncodeInt32s is the copying fallback for Int32Bytes.
func EncodeInt32s(vals []int32) []byte {
	b := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}
