package algo

// Microbenchmarks for the classify kernel in isolation. The macro
// ReverseKRanks benchmarks (root package) price the whole scan and are
// noisy on shared machines; these loop the kernel over a resident row
// store and a resident bound table, so its ns/row is stable enough to
// steer kernel work. The sink defeats dead-code elimination.

import (
	"math/rand"
	"testing"
)

var kernelSink int32

func kernelFixture(nRows, d, n int) (rows []uint8, bnd []float64, fq float64) {
	rng := rand.New(rand.NewSource(7))
	rows = make([]uint8, nRows*d)
	for i := range rows {
		rows[i] = uint8(rng.Intn(n))
	}
	bnd = make([]float64, d*2*n)
	for i := range bnd {
		bnd[i] = rng.Float64()
	}
	// A mid-range threshold so all three cases occur and the final
	// compares stay unpredictable, as in a real scan.
	fq = float64(d) * 0.5
	return rows, bnd, fq
}

func benchClassifyRow(b *testing.B, d int) {
	const nRows, n = 4096, 32
	rows, bnd, fq := kernelFixture(nRows, d, n)
	b.SetBytes(int64(d)) // codes classified per op-row
	b.ResetTimer()
	var s int32
	for i := 0; i < b.N; i++ {
		base := (i % nRows) * d
		s += classifyRow(rows[base:base+d], bnd, 2*n, fq)
	}
	kernelSink = s
}

func BenchmarkClassifyRowD6(b *testing.B)  { benchClassifyRow(b, 6) }
func BenchmarkClassifyRowD16(b *testing.B) { benchClassifyRow(b, 16) }
