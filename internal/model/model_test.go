package model

import (
	"math"
	"math/rand"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/grid"
	"gridrank/internal/vec"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
		{3, 0.99865},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestUpperTailMatchesPaperExample(t *testing.T) {
	// Section 5.3: Φ(0.0125) = 0.495.
	if got := UpperTail(0.0125); math.Abs(got-0.495) > 1e-3 {
		t.Errorf("Φ(0.0125) = %v, want ≈0.495", got)
	}
}

func TestInvUpperTail(t *testing.T) {
	for _, p := range []float64{0.5, 0.495, 0.25, 0.1, 0.01, 1e-6} {
		x, err := InvUpperTail(p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if got := UpperTail(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("UpperTail(InvUpperTail(%v)) = %v", p, got)
		}
	}
	if _, err := InvUpperTail(0); err == nil {
		t.Error("p=0 should error")
	}
	if _, err := InvUpperTail(0.6); err == nil {
		t.Error("p>0.5 should error")
	}
}

func TestScoreMoments(t *testing.T) {
	mean, std := ScoreMoments(20, 1)
	if mean != 10 {
		t.Errorf("mean = %v, want 10", mean)
	}
	want := math.Sqrt(20) / (2 * math.Sqrt(3))
	if math.Abs(std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", std, want)
	}
}

func TestRequiredPartitionsMatchesPaperExample(t *testing.T) {
	// Section 5.3's worked example: d = 20, ε = 1% → n ≈ 24.9, so 25
	// exactly and 32 as the next power of two ("n = 32 satisfies Eq. 28").
	n, err := RequiredPartitions(20, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Errorf("RequiredPartitions(20, 1%%) = %d, want 25", n)
	}
	p2, err := RequiredPartitionsPow2(20, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 32 {
		t.Errorf("RequiredPartitionsPow2(20, 1%%) = %d, want 32", p2)
	}
}

func TestRequiredPartitionsErrors(t *testing.T) {
	if _, err := RequiredPartitions(0, 0.01); err == nil {
		t.Error("d=0 should error")
	}
	if _, err := RequiredPartitions(5, 0); err == nil {
		t.Error("ε=0 should error")
	}
	if _, err := RequiredPartitions(5, 1); err == nil {
		t.Error("ε=1 should error")
	}
}

func TestWorstCaseFilteringSatisfiesTheorem1(t *testing.T) {
	// For every d, the n returned by RequiredPartitions must achieve
	// F_worst > 1−ε, and n−1 (when ≥1) must not be clearly sufficient —
	// i.e. the bound is tight to within the integer rounding.
	for _, d := range []int{2, 6, 10, 20, 50} {
		for _, eps := range []float64{0.01, 0.05} {
			n, err := RequiredPartitions(d, eps)
			if err != nil {
				t.Fatal(err)
			}
			if f := WorstCaseFiltering(d, n); f < 1-eps {
				t.Errorf("d=%d ε=%v: F_worst(n=%d) = %v < %v", d, eps, n, f, 1-eps)
			}
		}
	}
}

func TestWorstCaseFilteringMonotone(t *testing.T) {
	// More partitions filter more; more dimensions filter less.
	if WorstCaseFiltering(6, 32) <= WorstCaseFiltering(6, 8) {
		t.Error("F should grow with n")
	}
	if WorstCaseFiltering(40, 32) >= WorstCaseFiltering(6, 32) {
		t.Error("F should shrink with d")
	}
}

func TestDiceProbBasics(t *testing.T) {
	// One 6-sided die: uniform.
	for s := 1; s <= 6; s++ {
		if got := DiceProb(s, 1, 6); math.Abs(got-1.0/6) > 1e-12 {
			t.Errorf("P(1d6 = %d) = %v", s, got)
		}
	}
	// Two 6-sided dice: P(7) = 6/36.
	if got := DiceProb(7, 2, 6); math.Abs(got-6.0/36) > 1e-12 {
		t.Errorf("P(2d6 = 7) = %v, want 1/6", got)
	}
	if DiceProb(1, 2, 6) != 0 || DiceProb(13, 2, 6) != 0 {
		t.Error("impossible sums must have probability 0")
	}
}

func TestDiceProbSumsToOne(t *testing.T) {
	for _, c := range []struct{ d, faces int }{{3, 4}, {4, 16}, {6, 9}} {
		total := 0.0
		for s := c.d; s <= c.d*c.faces; s++ {
			total += DiceProb(s, c.d, c.faces)
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("d=%d faces=%d: probabilities sum to %v", c.d, c.faces, total)
		}
	}
}

func TestDiceClosedFormAgreesWithDP(t *testing.T) {
	for _, c := range []struct{ d, faces int }{{2, 6}, {3, 4}, {4, 8}, {5, 5}} {
		for s := c.d; s <= c.d*c.faces; s++ {
			dp := DiceProb(s, c.d, c.faces)
			cf := DiceClosedForm(s, c.d, c.faces)
			if math.Abs(dp-cf) > 1e-9 {
				t.Errorf("d=%d faces=%d s=%d: DP %v vs closed form %v", c.d, c.faces, s, dp, cf)
			}
		}
	}
}

// Lemma 1's claim: dice sums approach the normal distribution. Compare the
// exact CDF of d=8 dice with n²=16 faces against N(μ, σ) at several points.
func TestDiceApproachesNormal(t *testing.T) {
	const d, faces = 8, 16
	// One die uniform on 1..faces: mean (faces+1)/2, var (faces²−1)/12.
	mu := float64(d) * float64(faces+1) / 2
	sigma := math.Sqrt(float64(d) * (float64(faces*faces) - 1) / 12)
	cdf := 0.0
	maxErr := 0.0
	for s := d; s <= d*faces; s++ {
		cdf += DiceProb(s, d, faces)
		normal := NormalCDF((float64(s) + 0.5 - mu) / sigma)
		if e := math.Abs(cdf - normal); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.01 {
		t.Errorf("max CDF deviation from normal = %v, want < 0.01", maxErr)
	}
}

func TestRTreeFilterVolumeMatchesPaperExample(t *testing.T) {
	// Section 5.2: d = 10, g = 5, γ = 0 → at most 1/5! = 0.8% of the space.
	got := RTreeFilterVolume(5, 0)
	if math.Abs(got-1.0/120) > 1e-12 {
		t.Errorf("Vol_max(5, 0) = %v, want 1/120", got)
	}
	if RTreeFilterVolume(0, 0.5) != 1 {
		t.Error("g=0 should give volume 1")
	}
	// Shrinks rapidly with g.
	if RTreeFilterVolume(10, 0) >= RTreeFilterVolume(5, 0) {
		t.Error("volume bound must shrink with g")
	}
}

func TestGridDelta(t *testing.T) {
	if got := GridDelta(6, 32, 10000); math.Abs(got-10000.0*6/1024) > 1e-9 {
		t.Errorf("GridDelta = %v", got)
	}
}

// Empirical check of the spirit of Lemma 2: the measured fraction of
// random pairs whose Grid bound interval straddles a random query score
// shrinks as n grows.
func TestEmpiricalFilteringGrowsWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const d = 6
	P := dataset.GenerateProducts(rng, dataset.Uniform, 400, d, 1).Points
	W := dataset.GenerateWeights(rng, dataset.Uniform, 50, d).Points
	rate := func(n int) float64 {
		g := grid.New(n, 1, 1)
		pa := grid.NewPointIndex(g, P)
		wa := grid.NewWeightIndex(g, W)
		decided, total := 0, 0
		for wi, w := range W {
			q := P[rng.Intn(len(P))]
			fq := vec.Dot(w, q)
			for pi := range P {
				total++
				if lo, hi := g.Bounds(pa.Row(pi), wa.Row(wi)); hi < fq || lo > fq {
					decided++ // Case 1 or Case 2
				}
			}
		}
		return float64(decided) / float64(total)
	}
	r4, r32, r128 := rate(4), rate(32), rate(128)
	if !(r4 < r32 && r32 < r128) {
		t.Errorf("filtering should grow with n: %v, %v, %v", r4, r32, r128)
	}
	// Note: this measures the pure per-pair classification rate; the
	// paper's >99% figures also credit points skipped by early termination
	// (see EXPERIMENTS.md fig15b).
	if r128 < 0.90 {
		t.Errorf("n=128 d=6 filtering %v, want > 0.90", r128)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("dice d=0", func() { DiceProb(1, 0, 6) })
	mustPanic("dice faces=0", func() { DiceProb(1, 1, 0) })
	mustPanic("wcf d=0", func() { WorstCaseFiltering(0, 4) })
	mustPanic("rtv g<0", func() { RTreeFilterVolume(-1, 0) })
	mustPanic("rtv gamma>1", func() { RTreeFilterVolume(2, 1.5) })
}
