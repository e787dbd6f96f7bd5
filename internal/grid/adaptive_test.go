package grid

import (
	"math/rand"
	"sort"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/vec"
)

func TestAdaptiveEdgesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dist := range []dataset.Distribution{dataset.Uniform, dataset.Exponential, dataset.Clustered} {
		P := dataset.GenerateProducts(rng, dist, 500, 4, 100)
		W := dataset.GenerateWeights(rng, dataset.Uniform, 300, 4)
		for _, n := range []int{2, 8, 32} {
			a := NewAdaptive(n, P.Points, W.Points, 100)
			for _, edges := range [][]float64{a.edgesP, a.edgesW} {
				if len(edges) != n+1 {
					t.Fatalf("%s n=%d: %d edges", dist, n, len(edges))
				}
				if edges[0] != 0 {
					t.Fatalf("%s n=%d: first edge %v", dist, n, edges[0])
				}
				if !sort.Float64sAreSorted(edges) {
					t.Fatalf("%s n=%d: edges not sorted: %v", dist, n, edges)
				}
				for k := 1; k <= n; k++ {
					if edges[k] <= edges[k-1] {
						t.Fatalf("%s n=%d: edges not strictly increasing at %d: %v", dist, n, k, edges)
					}
				}
			}
			if a.edgesP[n] < 100 {
				t.Fatalf("top point edge %v below max", a.edgesP[n])
			}
		}
	}
}

func TestAdaptiveEdgesWithHeavyDuplicates(t *testing.T) {
	// All values identical: the quantiles collapse; edges must still be
	// strictly increasing and cover the range.
	pts := make([]vec.Vector, 50)
	for i := range pts {
		pts[i] = vec.Vector{5, 5}
	}
	ws := make([]vec.Vector, 50)
	for i := range ws {
		ws[i] = vec.Vector{0.5, 0.5}
	}
	a := NewAdaptive(8, pts, ws, 10)
	for k := 1; k <= 8; k++ {
		if a.edgesP[k] <= a.edgesP[k-1] {
			t.Fatalf("duplicate-heavy edges not strictly increasing: %v", a.edgesP)
		}
	}
}

// The same central invariant as the equal-width grid: bounds bracket the
// true score — on skewed data, where Adaptive matters.
func TestAdaptiveBoundsBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 4, 32} {
		P := dataset.GenerateProducts(rng, dataset.Exponential, 400, 6, 1000)
		W := dataset.GenerateWeights(rng, dataset.Exponential, 200, 6)
		a := NewAdaptive(n, P.Points, W.Points, 1000)
		pa := make([]uint8, 6)
		wa := make([]uint8, 6)
		for iter := 0; iter < 2000; iter++ {
			p := P.Points[rng.Intn(len(P.Points))]
			w := W.Points[rng.Intn(len(W.Points))]
			a.ApproxPoint(p, pa)
			a.ApproxWeight(w, wa)
			f := vec.Dot(p, w)
			lo, hi := a.Bounds(pa, wa)
			if f < lo-1e-9 || f > hi+1e-9 {
				t.Fatalf("n=%d: f=%v outside [%v, %v]", n, f, lo, hi)
			}
			if a.Lower(pa, wa) != lo || a.Upper(pa, wa) != hi {
				t.Fatal("Lower/Upper disagree with Bounds")
			}
		}
	}
}

// Values outside the sampled range (but inside maxP) must still bracket.
func TestAdaptiveBoundsForUnsampledValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	P := dataset.GenerateProducts(rng, dataset.Exponential, 300, 3, 1000)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 100, 3)
	a := NewAdaptive(16, P.Points, W.Points, 1000)
	pa := make([]uint8, 3)
	wa := make([]uint8, 3)
	// A query near the top of the declared range: far above any sampled
	// exponential value.
	q := vec.Vector{999.9, 0, 500}
	w := W.Points[0]
	a.ApproxPoint(q, pa)
	a.ApproxWeight(w, wa)
	f := vec.Dot(q, w)
	lo, hi := a.Bounds(pa, wa)
	if f < lo-1e-9 || f > hi+1e-9 {
		t.Fatalf("unsampled value: f=%v outside [%v, %v]", f, lo, hi)
	}
}

func TestCellOf(t *testing.T) {
	edges := []float64{0, 1, 5, 100}
	cases := []struct {
		x    float64
		want uint8
	}{
		{-3, 0}, {0, 0}, {0.5, 0}, {1, 1}, {3, 1}, {5, 2}, {99, 2}, {100, 2}, {200, 2},
	}
	for _, c := range cases {
		if got := cellOf(edges, c.x); got != c.want {
			t.Errorf("cellOf(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// The point of the extension: on exponential data the adaptive grid's
// average bound interval is tighter than the equal-width grid's at the
// same n, yielding a higher classification rate.
func TestAdaptiveTighterOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d, n = 6, 16
	P := dataset.GenerateProducts(rng, dataset.Exponential, 600, d, 10000)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 150, d)
	eq := New(n, 10000, 1)
	ad := NewAdaptive(n, P.Points, W.Points, 10000)

	classified := func(b Bounder) float64 {
		pix := NewPointIndex(b, P.Points)
		wix := NewWeightIndex(b, W.Points)
		decided, total := 0, 0
		for wi, w := range W.Points {
			q := P.Points[rng.Intn(len(P.Points))]
			fq := vec.Dot(w, q)
			for pi := range P.Points {
				total++
				lo, hi := b.Bounds(pix.Row(pi), wix.Row(wi))
				if hi < fq || lo > fq {
					decided++
				}
			}
		}
		return float64(decided) / float64(total)
	}
	eqRate := classified(eq)
	adRate := classified(ad)
	if adRate <= eqRate {
		t.Errorf("adaptive rate %v should beat equal-width %v on exponential data", adRate, eqRate)
	}
}

func TestAdaptivePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	P := []vec.Vector{{1, 2}}
	W := []vec.Vector{{0.5, 0.5}}
	mustPanic("n=0", func() { NewAdaptive(0, P, W, 10) })
	mustPanic("empty points", func() { NewAdaptive(4, nil, W, 10) })
	mustPanic("empty weights", func() { NewAdaptive(4, P, nil, 10) })
	mustPanic("bad max", func() { NewAdaptive(4, P, W, 0) })
	a := NewAdaptive(4, P, W, 10)
	mustPanic("short approx buffer", func() { a.ApproxPoint(vec.Vector{1, 2}, make([]uint8, 1)) })
	mustPanic("short weight buffer", func() { a.ApproxWeight(vec.Vector{1, 2}, make([]uint8, 1)) })
}

func TestAdaptiveMemoryComparable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 100, 3, 100)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 100, 3)
	a := NewAdaptive(32, P.Points, W.Points, 100)
	g := New(32, 100, 1)
	if a.MemoryBytes() != g.MemoryBytes() {
		t.Errorf("adaptive %d bytes vs equal-width %d: same table shape should match",
			a.MemoryBytes(), g.MemoryBytes())
	}
}

// Lower evaluates Equation 3 on the adaptive table: the per-bound
// reference the fused Bounds must agree with.
func (a *Adaptive) Lower(pa, wa []uint8) float64 {
	stride := a.n + 1
	var s float64
	for i, pi := range pa {
		s += a.table[int(pi)*stride+int(wa[i])]
	}
	return s
}

// Upper evaluates Equation 4 on the adaptive table.
func (a *Adaptive) Upper(pa, wa []uint8) float64 {
	stride := a.n + 1
	var s float64
	for i, pi := range pa {
		s += a.table[(int(pi)+1)*stride+int(wa[i])+1]
	}
	return s
}
