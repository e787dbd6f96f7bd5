package algo

import (
	"fmt"

	"gridrank/internal/grid"
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// SparseGIR is the sparse-preference optimization the paper sketches in
// its future work (Section 7): "in practice, a user is normally interested
// in a few attributes of the products", i.e. most components of w are
// exactly zero. For such weights:
//
//   - a zero component contributes exactly 0 to the score, so both Grid
//     bounds can skip the dimension entirely — the dense upper bound of
//     Equation 4 would instead add α_p[p^(a)+1]·α_w[1] > 0 per zero
//     dimension, so skipping both SPEEDS UP and TIGHTENS the filter;
//   - exact refinements and f_w(q) shrink from d to nnz(w) multiplications.
//
// Each weight stores only its non-zero dimensions and their cells. The
// query semantics are identical to GIR (and validated against it).
type SparseGIR struct {
	P []vec.Vector
	W []vec.Vector

	g  *grid.Grid
	pa *grid.Index
	// wDims[wi] lists w's non-zero dimensions; wCells[wi] the matching
	// weight cells. Stored flat per weight, built once at construction.
	wDims  [][]int32
	wCells [][]uint8
}

// NewSparseGIR builds the sparse variant. It accepts any weight set —
// dense weights simply get full dimension lists — but only pays off when
// weights are mostly zero.
func NewSparseGIR(P, W []vec.Vector, rangeP float64, n int) *SparseGIR {
	validateSets(P, W)
	if n < 1 {
		panic(fmt.Sprintf("algo: grid partitions %d < 1", n))
	}
	g := grid.New(n, rangeP, maxComponent(W))
	s := &SparseGIR{
		P:      P,
		W:      W,
		g:      g,
		pa:     grid.NewPointIndex(g, P),
		wDims:  make([][]int32, len(W)),
		wCells: make([][]uint8, len(W)),
	}
	for wi, w := range W {
		for dim, x := range w {
			if x != 0 {
				s.wDims[wi] = append(s.wDims[wi], int32(dim))
				s.wCells[wi] = append(s.wCells[wi], g.CellW(x))
			}
		}
	}
	return s
}

// Name implements RTKAlgorithm and RKRAlgorithm.
func (s *SparseGIR) Name() string { return "GIR-SPARSE" }

// sparseDot computes f_w(p) over the non-zero dimensions only.
func sparseDot(w, p vec.Vector, dims []int32) float64 {
	var f float64
	for _, dim := range dims {
		f += w[dim] * p[dim]
	}
	return f
}

// rankBounded is GInTop-k restricted to the weight's non-zero dimensions,
// with inline Case-3 refinement so early termination fires at the same
// pair as the dense scans (see GIR.rankBounded).
func (s *SparseGIR) rankBounded(wi int, q vec.Vector, cutoff int, dom *domin, c *stats.Counters) (int, bool) {
	w := s.W[wi]
	dims := s.wDims[wi]
	cells := s.wCells[wi]
	fq := sparseDot(w, q, dims)
	if c != nil {
		c.PairwiseMults++
	}
	rnk := dom.count
	if rnk >= cutoff {
		return cutoff, false
	}
	for pj := range s.P {
		if dom.has(pj) {
			continue
		}
		pa := s.pa.Row(pj)
		if c != nil {
			c.BoundSums++
			c.ApproxVisited++
		}
		var upper float64
		for di, dim := range dims {
			upper += s.g.At(int(pa[dim])+1, int(cells[di])+1)
		}
		if upper < fq { // Case 1
			rnk++
			if c != nil {
				c.Filtered++
			}
			dom.observe(pj, s.P[pj], q)
			if rnk >= cutoff {
				return cutoff, false
			}
			continue
		}
		var lower float64
		for di, dim := range dims {
			lower += s.g.At(int(pa[dim]), int(cells[di]))
		}
		if lower <= fq {
			// Case 3: refine inline.
			if c != nil {
				c.PairwiseMults++
				c.Refinements++
				c.PointsVisited++
			}
			if sparseDot(w, s.P[pj], dims) < fq {
				rnk++
				dom.observe(pj, s.P[pj], q)
				if rnk >= cutoff {
					return cutoff, false
				}
			}
		} else if c != nil { // Case 2
			c.Filtered++
		}
	}
	return rnk, true
}

// ReverseTopK mirrors GIRTop-k on the sparse representation.
func (s *SparseGIR) ReverseTopK(q vec.Vector, k int, c *stats.Counters) []int {
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil
	}
	dom := newDomin(len(s.P))
	var res []int
	for wi := range s.W {
		if _, ok := s.rankBounded(wi, q, k, dom, c); ok {
			res = append(res, wi)
		}
		if dom.count >= k {
			return nil
		}
	}
	return res
}

// ReverseKRanks mirrors GIRk-Rank on the sparse representation.
func (s *SparseGIR) ReverseKRanks(q vec.Vector, k int, c *stats.Counters) []topk.Match {
	if c != nil {
		defer func() { c.Queries++ }()
	}
	if k <= 0 {
		return nil
	}
	h := topk.NewKRankHeap(k)
	dom := newDomin(len(s.P))
	for wi := range s.W {
		if rnk, ok := s.rankBounded(wi, q, h.Threshold(), dom, c); ok {
			h.Offer(topk.Match{WeightIndex: wi, Rank: rnk})
		}
	}
	return h.Results()
}
