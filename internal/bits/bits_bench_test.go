package bits

import (
	"math/rand"
	"testing"
)

func benchPacked(b *testing.B, bitsPerDim int) (*PackedRows, []uint8) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	p := NewPackedRows(10000, 6, bitsPerDim)
	for i, row := range randomRows(rng, 10000, 6, bitsPerDim) {
		p.EncodeRow(i, row)
	}
	return p, make([]uint8, 6)
}

func BenchmarkDecode6bit(b *testing.B) {
	p, buf := benchPacked(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DecodeRow(i%10000, buf)
	}
}

func BenchmarkEncode6bit(b *testing.B) {
	p, buf := benchPacked(b, 6)
	for j := range buf {
		buf[j] = uint8(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EncodeRow(i%10000, buf)
	}
}
