package grid

import (
	"math"
	"math/rand"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/vec"
)

func TestNewTableValues(t *testing.T) {
	// The paper's running example: 4 partitions over [0,1]×[0,1],
	// α = (0, 0.25, 0.5, 0.75, 1).
	g := New(4, 1, 1)
	if g.At(2, 0) != 0.5*0 {
		t.Errorf("Grid[2][0] = %v, want 0", g.At(2, 0))
	}
	if got := g.At(3, 1); math.Abs(got-0.75*0.25) > 1e-15 {
		t.Errorf("Grid[3][1] = %v, want 0.1875", got)
	}
	if g.At(4, 4) != 1 {
		t.Errorf("Grid[4][4] = %v, want 1", g.At(4, 4))
	}
}

func TestNewPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("n=0", func() { New(0, 1, 1) })
	mustPanic("rangeP=0", func() { New(4, 0, 1) })
	mustPanic("rangeW<0", func() { New(4, 1, -1) })
}

func TestCellMatchesPaperExample(t *testing.T) {
	// Figure 4: p = (0.62, 0.15, 0.73) with 4 partitions of [0,1]
	// gives p^(a) = (2, 0, 2); w = (0.12, 0.60, 0.28) gives (0, 2, 1).
	g := New(4, 1, 1)
	p := vec.Vector{0.62, 0.15, 0.73}
	w := vec.Vector{0.12, 0.60, 0.28}
	pa := g.ApproxPoint(p, make([]uint8, 3))
	wa := g.ApproxWeight(w, make([]uint8, 3))
	for i, want := range []uint8{2, 0, 2} {
		if pa[i] != want {
			t.Errorf("p^(a)[%d] = %d, want %d", i, pa[i], want)
		}
	}
	for i, want := range []uint8{0, 2, 1} {
		if wa[i] != want {
			t.Errorf("w^(a)[%d] = %d, want %d", i, wa[i], want)
		}
	}
}

func TestCellEdges(t *testing.T) {
	g := New(8, 100, 1)
	cellP := func(x float64) uint8 { return g.ApproxPoint(vec.Vector{x}, make([]uint8, 1))[0] }
	if cellP(0) != 0 {
		t.Error("0 should land in cell 0")
	}
	if cellP(-1) != 0 {
		t.Error("negative values clamp to cell 0")
	}
	if cellP(100) != 7 {
		t.Error("range max clamps into last cell")
	}
	if cellP(99.999999) != 7 {
		t.Error("just below max lands in last cell")
	}
	if cellP(12.5) != 1 {
		t.Errorf("12.5 on [0,100)/8: got %d, want 1", cellP(12.5))
	}
}

// The central correctness property of the whole paper: for random data the
// Grid bounds always bracket the true inner product (Equation 2).
func TestBoundsBracketTrueScore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 32, 128} {
		for iter := 0; iter < 500; iter++ {
			d := 1 + rng.Intn(12)
			rp := []float64{1, 100, 10000}[rng.Intn(3)]
			g := New(n, rp, 1)
			p := make(vec.Vector, d)
			w := make(vec.Vector, d)
			for i := 0; i < d; i++ {
				p[i] = rng.Float64() * rp
				w[i] = rng.Float64()
			}
			if !vec.Normalize(w) {
				continue
			}
			pa := g.ApproxPoint(p, make([]uint8, d))
			wa := g.ApproxWeight(w, make([]uint8, d))
			f := vec.Dot(p, w)
			lo, hi := g.Bounds(pa, wa)
			if f < lo-1e-9 || f > hi+1e-9 {
				t.Fatalf("n=%d d=%d: f=%v outside [%v, %v]", n, d, f, lo, hi)
			}
			if got := g.Lower(pa, wa); math.Abs(got-lo) > 1e-12 {
				t.Fatalf("Lower disagrees with Bounds: %v vs %v", got, lo)
			}
			if got := g.Upper(pa, wa); math.Abs(got-hi) > 1e-12 {
				t.Fatalf("Upper disagrees with Bounds: %v vs %v", got, hi)
			}
		}
	}
}

// Bound width shrinks as n grows: n=32 bounds are tighter than n=4 bounds.
func TestBoundsTightenWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g4, g32 := New(4, 1, 1), New(32, 1, 1)
	var w4, w32 float64
	for iter := 0; iter < 300; iter++ {
		d := 6
		p := make(vec.Vector, d)
		w := make(vec.Vector, d)
		for i := 0; i < d; i++ {
			p[i] = rng.Float64()
			w[i] = rng.Float64()
		}
		vec.Normalize(w)
		pa4 := g4.ApproxPoint(p, make([]uint8, d))
		wa4 := g4.ApproxWeight(w, make([]uint8, d))
		lo, hi := g4.Bounds(pa4, wa4)
		w4 += hi - lo
		pa32 := g32.ApproxPoint(p, make([]uint8, d))
		wa32 := g32.ApproxWeight(w, make([]uint8, d))
		lo, hi = g32.Bounds(pa32, wa32)
		w32 += hi - lo
	}
	if w32*4 > w4 {
		t.Errorf("n=32 bound width %v not clearly tighter than n=4 width %v", w32, w4)
	}
}

func TestClassify(t *testing.T) {
	g := New(4, 1, 1)
	p := vec.Vector{0.62, 0.15, 0.73}
	w := vec.Vector{0.2, 0.5, 0.3}
	pa := g.ApproxPoint(p, make([]uint8, 3))
	wa := g.ApproxWeight(w, make([]uint8, 3))
	lo, hi := g.Bounds(pa, wa)
	if got := g.Classify(pa, wa, hi+0.1); got != PrecedesQ {
		t.Errorf("fq above upper: got %v, want PrecedesQ", got)
	}
	if got := g.Classify(pa, wa, lo-0.1); got != QPrecedes {
		t.Errorf("fq below lower: got %v, want QPrecedes", got)
	}
	if got := g.Classify(pa, wa, (lo+hi)/2); got != Incomparable {
		t.Errorf("fq inside bounds: got %v, want Incomparable", got)
	}
	if got := g.Classify(pa, wa, hi); got != Incomparable {
		t.Errorf("fq exactly at upper: got %v, want Incomparable", got)
	}
}

func TestMemoryBytesMatchesPaperEstimate(t *testing.T) {
	// Section 5.3: a 32×32 Grid-index needs about 8K (32·32·8) bytes for
	// the boundary table. Our implementation keeps two additional
	// column-transposed copies for the scan hot loop, tripling that —
	// still a negligible ~25 KiB.
	g := New(32, 10000, 1)
	if g.MemoryBytes() > 3*9500 {
		t.Errorf("32-partition grid uses %d bytes, want < ~28K", g.MemoryBytes())
	}
}

func TestIndexRowsMatchDirectApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 200, 5, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 200, 5)
	g := New(32, P.Range, 1)
	pix := NewPointIndex(g, P.Points)
	wix := NewWeightIndex(g, W.Points)
	if pix.Count() != 200 || wix.Count() != 200 || pix.Dim() != 5 {
		t.Fatalf("bad index shape")
	}
	buf := make([]uint8, 5)
	for i := 0; i < 200; i++ {
		g.ApproxPoint(P.Points[i], buf)
		for j, v := range pix.Row(i) {
			if v != buf[j] {
				t.Fatalf("point %d dim %d: index %d, direct %d", i, j, v, buf[j])
			}
		}
		g.ApproxWeight(W.Points[i], buf)
		for j, v := range wix.Row(i) {
			if v != buf[j] {
				t.Fatalf("weight %d dim %d: index %d, direct %d", i, j, v, buf[j])
			}
		}
	}
}

func TestNewIndexPanics(t *testing.T) {
	g := New(4, 1, 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { NewPointIndex(g, nil) })
	mustPanic("ragged", func() {
		NewPointIndex(g, []vec.Vector{{0.1, 0.2}, {0.3}})
	})
}

// The helpers below are test-side reference implementations: the
// per-bound Equations 3 and 4 that the fused Bounds must agree with,
// and Section 3.1's three-way classification.

// Lower evaluates Equation (3): the lower score bound from approximate
// vectors pa and wa, using d additions and d table lookups.
func (g *Grid) Lower(pa, wa []uint8) float64 {
	stride := g.n + 1
	var s float64
	for i, pi := range pa {
		s += g.table[int(pi)*stride+int(wa[i])]
	}
	return s
}

// Upper evaluates Equation (4): the upper score bound.
func (g *Grid) Upper(pa, wa []uint8) float64 {
	stride := g.n + 1
	var s float64
	for i, pi := range pa {
		s += g.table[(int(pi)+1)*stride+int(wa[i])+1]
	}
	return s
}

// Precedence is the three-way classification of Section 3.1.
type Precedence int8

const (
	// PrecedesQ: Case 1, U[f_w(p)] < f_w(q): p ranks above q under w.
	PrecedesQ Precedence = iota - 1
	// Incomparable: Case 3, the bounds straddle f_w(q); refinement needed.
	Incomparable
	// QPrecedes: Case 2, L[f_w(p)] > f_w(q): p cannot affect q's rank.
	QPrecedes
)

// Classify applies the three cases to approximate vectors against the
// exact query score fq = f_w(q), with strict inequalities on both sides
// as the GIR scan uses them.
func (g *Grid) Classify(pa, wa []uint8, fq float64) Precedence {
	lo, hi := g.Bounds(pa, wa)
	switch {
	case hi < fq:
		return PrecedesQ
	case lo > fq:
		return QPrecedes
	default:
		return Incomparable
	}
}
