package gridrank

// Benchmarks of the cell-grouping regime: duplicate-heavy workloads where
// many points and weights collapse onto few grid cells. The acceptance
// workload (CL data, n=32, d=6) plus a UN/CL/AC × d × n sweep.

import (
	"fmt"
	"math/rand"
	"testing"

	"gridrank/internal/algo"
	"gridrank/internal/stats"
)

func makeDistBenchData(b *testing.B, dist Distribution, nP, nW, d int) benchData {
	b.Helper()
	P, err := GenerateProducts(1, dist, nP, d)
	if err != nil {
		b.Fatal(err)
	}
	wdist := dist
	if wdist == AntiCorrelated {
		wdist = Uniform // AC preferences are not defined
	}
	W, err := GeneratePreferences(2, wdist, nW, d)
	if err != nil {
		b.Fatal(err)
	}
	return benchData{P: P, W: W, q: P[len(P)/2]}
}

// makeCatalogBenchData builds the duplicate-heavy workload: a catalog of
// distinct clustered base vectors sampled with multiplicity `dup`, the
// shape of real e-commerce data where many listings share one attribute
// vector (same model, different sellers) and users fall into persona
// archetypes. Points sharing a vector share a grid cell, which is the
// regime cell grouping exploits.
func makeCatalogBenchData(b *testing.B, nP, nW, d, dup int) benchData {
	b.Helper()
	base, err := GenerateProducts(1, Clustered, nP/dup, d)
	if err != nil {
		b.Fatal(err)
	}
	personas, err := GeneratePreferences(2, Clustered, nW/dup, d)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	P := make([]Vector, nP)
	for i := range P {
		P[i] = base[rng.Intn(len(base))]
	}
	W := make([]Vector, nW)
	for i := range W {
		W[i] = personas[rng.Intn(len(personas))]
	}
	return benchData{P: P, W: W, q: base[len(base)/2]}
}

// BenchmarkGIRGroupedRKR is the acceptance workload: clustered catalog
// data, n=32 partitions, d=6 — the duplicate-heavy regime where cell
// grouping shares bound evaluations across identical approximate vectors.
func BenchmarkGIRGroupedRKR(b *testing.B) {
	data := makeCatalogBenchData(b, 4000, 1000, 6, 16)
	gir := algo.NewGIR(data.P, data.W, DefaultRange, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gir.ReverseKRanks(data.q, 100, nil)
	}
}

// BenchmarkGIRGroupedRTK is the acceptance workload for reverse top-k.
func BenchmarkGIRGroupedRTK(b *testing.B) {
	data := makeCatalogBenchData(b, 4000, 1000, 6, 16)
	gir := algo.NewGIR(data.P, data.W, DefaultRange, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gir.ReverseTopK(data.q, 100, nil)
	}
}

// BenchmarkGIRGroupedSweep sweeps distribution, dimensionality and grid
// resolution: coarse grids and clustered data should show grouping wins,
// high d and fine grids a wash.
func BenchmarkGIRGroupedSweep(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep skipped in -short bench runs")
	}
	for _, dist := range []Distribution{Uniform, Clustered, AntiCorrelated} {
		for _, d := range []int{4, 8, 16} {
			for _, n := range []int{32, 128} {
				b.Run(fmt.Sprintf("%s/d=%d/n=%d", dist, d, n), func(b *testing.B) {
					data := makeDistBenchData(b, dist, 2000, 500, d)
					gir := algo.NewGIR(data.P, data.W, DefaultRange, n)
					var c stats.Counters
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						gir.ReverseKRanks(data.q, 50, &c)
					}
					b.ReportMetric(100*c.FilterRate(), "filter%")
				})
			}
		}
	}
}
