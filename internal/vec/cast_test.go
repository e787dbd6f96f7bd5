package vec

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// TestCastRoundTrip proves the zero-copy casts and the element-wise
// fallbacks decode the same bytes to the same values, in both
// directions, for every element type the GRI3 format stores.
func TestCastRoundTrip(t *testing.T) {
	floats := []float64{0, 1, -1, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 42}

	fb := EncodeFloat64s(floats)
	ib := EncodeInt32s(ints)

	if got := DecodeFloat64s(fb); !equalF64(got, floats) {
		t.Fatalf("DecodeFloat64s = %v, want %v", got, floats)
	}
	if got := DecodeInt32s(ib); !equalI32(got, ints) {
		t.Fatalf("DecodeInt32s = %v, want %v", got, ints)
	}

	if !hostLittleEndian {
		t.Skip("big-endian host: zero-copy casts are deliberately unavailable")
	}
	// Copy into aligned storage: the encode fallbacks return plain []byte
	// whose alignment is incidental.
	af := AlignedBytes(len(fb))
	copy(af, fb)
	if got, ok := CastFloat64s(af); !ok || !equalF64(got, floats) {
		t.Fatalf("CastFloat64s = %v, %v; want %v, true", got, ok, floats)
	}
	ai := AlignedBytes(len(ib))
	copy(ai, ib)
	if got, ok := CastInt32s(ai); !ok || !equalI32(got, ints) {
		t.Fatalf("CastInt32s = %v, %v; want %v, true", got, ok, ints)
	}

	// Typed slice -> bytes matches the element-wise encoding.
	if got, ok := Float64Bytes(floats); !ok || !bytes.Equal(got, fb) {
		t.Fatalf("Float64Bytes mismatch (ok=%v)", ok)
	}
	if got, ok := Int32Bytes(ints); !ok || !bytes.Equal(got, ib) {
		t.Fatalf("Int32Bytes mismatch (ok=%v)", ok)
	}
}

// TestCastIsZeroCopy proves a cast aliases the input storage rather than
// copying it.
func TestCastIsZeroCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host")
	}
	b := AlignedBytes(16)
	vals, ok := CastFloat64s(b)
	if !ok || len(vals) != 2 {
		t.Fatalf("CastFloat64s ok=%v len=%d", ok, len(vals))
	}
	vals[1] = math.Pi
	if got := DecodeFloat64s(b)[1]; got != math.Pi {
		t.Fatalf("write through cast not visible in backing bytes: %v", got)
	}
	back, ok := Float64Bytes(vals)
	if !ok || unsafe.SliceData(back) != unsafe.SliceData(b) {
		t.Fatal("Float64Bytes did not alias the original storage")
	}
}

// TestCastRejectsMisaligned proves the casts refuse byte slices whose
// base pointer the target type cannot legally address.
func TestCastRejectsMisaligned(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host")
	}
	b := AlignedBytes(24)
	if _, ok := CastFloat64s(b[1:17]); ok {
		t.Fatal("CastFloat64s accepted a misaligned base")
	}
	if _, ok := CastInt32s(b[2:18]); ok {
		t.Fatal("CastInt32s accepted a misaligned base")
	}
	// Wrong lengths are rejected too.
	if _, ok := CastFloat64s(b[:7]); ok {
		t.Fatal("CastFloat64s accepted a non-multiple-of-8 length")
	}
	if _, ok := CastInt32s(b[:6]); ok {
		t.Fatal("CastInt32s accepted a non-multiple-of-4 length")
	}
}

// TestAlignedBytes proves the allocator returns 8-byte-aligned storage
// of the exact requested length.
func TestAlignedBytes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 4096, 4097} {
		b := AlignedBytes(n)
		if len(b) != n {
			t.Fatalf("AlignedBytes(%d) has length %d", n, len(b))
		}
		if n > 0 && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
			t.Fatalf("AlignedBytes(%d) base not 8-byte aligned", n)
		}
	}
}

// TestCastEmpty pins the empty-slice contract: legal, zero-copy, nil.
func TestCastEmpty(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host")
	}
	if got, ok := CastFloat64s(nil); !ok || got != nil {
		t.Fatalf("CastFloat64s(nil) = %v, %v", got, ok)
	}
	if got, ok := Float64Bytes(nil); !ok || got != nil {
		t.Fatalf("Float64Bytes(nil) = %v, %v", got, ok)
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
