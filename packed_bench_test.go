package gridrank

// A/B pairs pricing the packed cell-row layout against the float64
// reference on the reverse k-ranks scan, at the paper's default d = 6
// and at d = 16 where the per-row classify work dominates and the
// widened packed kernel has the most to win. Both sides of each pair
// run the identical workload, so the ratio is the layout's speedup;
// scripts/bench.sh records both in BENCH_gir.json.

import (
	"testing"

	"gridrank/internal/algo"
	"gridrank/internal/vec"
)

func benchGIRLayoutRKR(b *testing.B, d, packedBits int) {
	b.Helper()
	data := makeBenchData(b, 4000, 1000, d)
	gir := algo.NewGIRFromMatrices(vec.NewMatrix(data.P), vec.NewMatrix(data.W), DefaultRange, 32, algo.Layout{PackedBits: packedBits})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gir.ReverseKRanks(data.q, 100, nil)
	}
}

func benchGIRLayoutRTK(b *testing.B, d, packedBits int) {
	b.Helper()
	data := makeBenchData(b, 4000, 1000, d)
	gir := algo.NewGIRFromMatrices(vec.NewMatrix(data.P), vec.NewMatrix(data.W), DefaultRange, 32, algo.Layout{PackedBits: packedBits})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gir.ReverseTopK(data.q, 100, nil)
	}
}

func BenchmarkGIRUnpackedKRanksD6(b *testing.B) { benchGIRLayoutRKR(b, 6, 0) }
func BenchmarkGIRPackedKRanksD6(b *testing.B)   { benchGIRLayoutRKR(b, 6, 5) }

func BenchmarkGIRUnpackedKRanksD16(b *testing.B) { benchGIRLayoutRKR(b, 16, 0) }
func BenchmarkGIRPackedKRanksD16(b *testing.B)   { benchGIRLayoutRKR(b, 16, 5) }

func BenchmarkGIRUnpackedTopKD16(b *testing.B) { benchGIRLayoutRTK(b, 16, 0) }
func BenchmarkGIRPackedTopKD16(b *testing.B)   { benchGIRLayoutRTK(b, 16, 5) }
