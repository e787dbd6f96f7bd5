package algo

import (
	"math/rand"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/grid"
	"gridrank/internal/stats"
)

// Sparse GIR must agree exactly with brute force on sparse weight sets,
// across sparsity levels, dimensions and k.
func TestSparseGIRCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct{ d, nnz int }{
		{6, 1}, {6, 2}, {10, 3}, {16, 2}, {4, 4}, // nnz = d: dense corner case
	} {
		P := dataset.GenerateProducts(rng, dataset.Uniform, 300, cfg.d, dataset.DefaultRange)
		W := dataset.SparseWeights(rng, 120, cfg.d, cfg.nnz)
		brute := NewBrute(P.Points, W.Points)
		sparse := NewSparseGIR(P.Points, W.Points, P.Range, 32)
		for qi := 0; qi < 5; qi++ {
			q := P.Points[rng.Intn(len(P.Points))]
			for _, k := range []int{1, 10, 40} {
				want := brute.ReverseTopK(q, k, nil)
				got := sparse.ReverseTopK(q, k, nil)
				if !equalInts(got, want) {
					t.Fatalf("d=%d nnz=%d k=%d RTK: got %v want %v", cfg.d, cfg.nnz, k, got, want)
				}
				wantKR := brute.ReverseKRanks(q, k, nil)
				gotKR := sparse.ReverseKRanks(q, k, nil)
				if !equalMatches(gotKR, wantKR) {
					t.Fatalf("d=%d nnz=%d k=%d RKR: got %+v want %+v", cfg.d, cfg.nnz, k, gotKR, wantKR)
				}
			}
		}
	}
}

// Sparse GIR also matches dense GIR on dense weights (nnz = d).
func TestSparseGIRMatchesDenseOnDenseWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 400, 5, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 150, 5)
	dense := NewGIR(P.Points, W.Points, P.Range, 32)
	sparse := NewSparseGIR(P.Points, W.Points, P.Range, 32)
	for qi := 0; qi < 5; qi++ {
		q := P.Points[rng.Intn(len(P.Points))]
		if !equalInts(sparse.ReverseTopK(q, 20, nil), dense.ReverseTopK(q, 20, nil)) {
			t.Fatal("sparse and dense GIR disagree on dense weights (RTK)")
		}
		if !equalMatches(sparse.ReverseKRanks(q, 20, nil), dense.ReverseKRanks(q, 20, nil)) {
			t.Fatal("sparse and dense GIR disagree on dense weights (RKR)")
		}
	}
}

// The point of the extension: on sparse weights, the sparse variant does
// fewer exact multiplications than the dense one (its skipped zero
// dimensions tighten the upper bound, shrinking the refinement set).
func TestSparseGIRTighterOnSparseWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d, nnz = 20, 3
	P := dataset.GenerateProducts(rng, dataset.Uniform, 2000, d, dataset.DefaultRange)
	W := dataset.SparseWeights(rng, 300, d, nnz)
	dense := NewGIR(P.Points, W.Points, P.Range, 32)
	sparse := NewSparseGIR(P.Points, W.Points, P.Range, 32)
	if got := sparse.AvgNonZero(); got != nnz {
		t.Fatalf("AvgNonZero = %v, want %d", got, nnz)
	}
	var cDense, cSparse stats.Counters
	for qi := 0; qi < 4; qi++ {
		q := P.Points[rng.Intn(len(P.Points))]
		want := dense.ReverseKRanks(q, 10, &cDense)
		got := sparse.ReverseKRanks(q, 10, &cSparse)
		if !equalMatches(got, want) {
			t.Fatal("sparse disagrees with dense")
		}
	}
	if cSparse.Refinements >= cDense.Refinements {
		t.Errorf("sparse refinements %d should undercut dense %d",
			cSparse.Refinements, cDense.Refinements)
	}
}

func TestSparseGIREdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 50, 4, 100)
	W := dataset.SparseWeights(rng, 20, 4, 1)
	s := NewSparseGIR(P.Points, W.Points, P.Range, 16)
	if got := s.ReverseTopK(P.Points[0], 0, nil); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := s.ReverseKRanks(P.Points[0], 0, nil); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := s.ReverseTopK(P.Points[0], len(P.Points), nil); len(got) != len(W.Points) {
		t.Errorf("k=|P|: got %d of %d weights", len(got), len(W.Points))
	}
}

func TestSparseGIRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 should panic")
		}
	}()
	NewSparseGIR([][]float64{{1}}, [][]float64{{1}}, 10, 0)
}

// GIR over the adaptive quantile grid agrees with brute force on skewed
// data — the future-work extension plugged into the production algorithm.
func TestAdaptiveGIRCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	P := dataset.GenerateProducts(rng, dataset.Exponential, 400, 6, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Exponential, 150, 6)
	ad := grid.NewAdaptive(32, P.Points, W.Points, P.Range)
	gir := NewGIRWithBounder(P.Points, W.Points, ad)
	brute := NewBrute(P.Points, W.Points)
	for qi := 0; qi < 6; qi++ {
		q := P.Points[rng.Intn(len(P.Points))]
		for _, k := range []int{1, 15} {
			if !equalInts(gir.ReverseTopK(q, k, nil), brute.ReverseTopK(q, k, nil)) {
				t.Fatalf("adaptive GIR RTK k=%d disagrees with brute force", k)
			}
			if !equalMatches(gir.ReverseKRanks(q, k, nil), brute.ReverseKRanks(q, k, nil)) {
				t.Fatalf("adaptive GIR RKR k=%d disagrees with brute force", k)
			}
		}
	}
}

// On exponential data the adaptive grid refines fewer points than the
// equal-width grid at the same n.
func TestAdaptiveGIRFiltersBetterOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	P := dataset.GenerateProducts(rng, dataset.Exponential, 2000, 6, dataset.DefaultRange)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 300, 6)
	eq := NewGIR(P.Points, W.Points, P.Range, 16)
	ad := NewGIRWithBounder(P.Points, W.Points, grid.NewAdaptive(16, P.Points, W.Points, P.Range))
	var cEq, cAd stats.Counters
	for qi := 0; qi < 4; qi++ {
		q := P.Points[rng.Intn(len(P.Points))]
		if !equalMatches(ad.ReverseKRanks(q, 10, &cAd), eq.ReverseKRanks(q, 10, &cEq)) {
			t.Fatal("adaptive and equal-width GIR disagree")
		}
	}
	if cAd.Refinements >= cEq.Refinements {
		t.Errorf("adaptive refinements %d should undercut equal-width %d on skewed data",
			cAd.Refinements, cEq.Refinements)
	}
}

// Domin ablation: disabling the buffer must not change answers, only cost.
func TestDisableDominKeepsAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 500, 4, 100)
	W := dataset.GenerateWeights(rng, dataset.Uniform, 150, 4)
	on := NewGIR(P.Points, W.Points, 100, 32)
	off := NewGIR(P.Points, W.Points, 100, 32)
	off.DisableDomin = true
	simOn := NewSIM(P.Points, W.Points)
	simOff := NewSIM(P.Points, W.Points)
	simOff.DisableDomin = true
	for qi := 0; qi < 6; qi++ {
		q := P.Points[rng.Intn(len(P.Points))]
		if !equalInts(on.ReverseTopK(q, 12, nil), off.ReverseTopK(q, 12, nil)) {
			t.Fatal("DisableDomin changed GIR RTK answers")
		}
		if !equalMatches(on.ReverseKRanks(q, 12, nil), off.ReverseKRanks(q, 12, nil)) {
			t.Fatal("DisableDomin changed GIR RKR answers")
		}
		if !equalInts(simOn.ReverseTopK(q, 12, nil), simOff.ReverseTopK(q, 12, nil)) {
			t.Fatal("DisableDomin changed SIM RTK answers")
		}
	}
}

// AvgNonZero returns the average number of non-zero weight components —
// the sparsity the construction discovered.
func (s *SparseGIR) AvgNonZero() float64 {
	total := 0
	for _, dims := range s.wDims {
		total += len(dims)
	}
	return float64(total) / float64(len(s.wDims))
}
