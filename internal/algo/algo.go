// Package algo implements every query algorithm of the paper:
//
//   - Brute: the exact reference (no pruning), used as ground truth.
//   - SIM: the simple scan with the Domin buffer and early termination
//     (Section 6.1's baseline).
//   - GIR: the Grid-index algorithms of Section 4 — GInTop-k (Alg. 1),
//     GIRTop-k (Alg. 2) and GIRk-Rank (Alg. 3) — the paper's contribution.
//   - BBR: branch-and-bound reverse top-k over two R-trees (Vlachou et
//     al. SIGMOD'13), the paper's tree-based RTK comparator.
//   - MPA: marked pruning approach for reverse k-ranks over a W-histogram
//     and a P R-tree (Zhang et al. VLDB'14), the RKR comparator.
//   - RTA: the threshold-buffer reverse top-k of Vlachou et al. ICDE'10,
//     an additional related-work baseline.
//
// All algorithms implement identical semantics (see the package-level
// contract below) and are cross-validated against Brute in the tests.
//
// # Query contract
//
// rank(w, q) is the number of points of P whose score under w is strictly
// below f_w(q); ties never count against q (the q-favouring reading of
// the paper's Definition 2).
//
// ReverseTopK(q, k) returns the indexes of all w with rank(w, q) < k, in
// ascending order.
//
// ReverseKRanks(q, k) returns the k weights with the smallest rank, ties
// broken toward smaller weight indexes, ordered by (rank, index).
// When |W| < k, all weights are returned.
//
// Algorithms are safe for concurrent queries: all per-query state is
// allocated per call.
package algo

import (
	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/vec"
)

// RTKAlgorithm answers reverse top-k queries.
type RTKAlgorithm interface {
	Name() string
	// ReverseTopK returns the ascending indexes of all weights that place
	// q inside their top-k.
	ReverseTopK(q vec.Vector, k int, c *stats.Counters) []int
}

// RKRAlgorithm answers reverse k-ranks queries.
type RKRAlgorithm interface {
	Name() string
	// ReverseKRanks returns the k best (weight, rank) matches for q.
	ReverseKRanks(q vec.Vector, k int, c *stats.Counters) []topk.Match
}

// domin is the Domin buffer of Algorithm 1: the set of points known to
// dominate q (strictly smaller on every attribute), which therefore rank
// above q under every legal weight vector. It memoizes dominance checks so
// each point is tested at most once per query.
type domin struct {
	dominates []bool
	checked   []bool
	count     int
	// shared, when non-nil, receives every first discovery so the
	// parallel GIR workers can maintain an exact distinct-dominator count
	// across their private buffers (see gir_parallel.go).
	shared *sharedDomin
	// Group wiring (nil for the ungrouped SIM/Sparse scans). groupOf maps
	// a point to its cell group; groupLive counts each group's members
	// NOT yet known to dominate q — it is the single load the grouped
	// scan's hot loop makes per group, initialized to the group sizes and
	// decremented on dominator discovery; groupChecked counts memoized
	// dominance tests per group, so a fully-checked group skips the
	// member-observe loop.
	groupOf      []int32
	groupSizes   []int32 // immutable template groupLive resets from
	groupLive    []int32
	groupChecked []int32
}

func newDomin(n int) *domin {
	return &domin{dominates: make([]bool, n), checked: make([]bool, n)}
}

// reset clears the buffer for pooled reuse by a new query.
func (d *domin) reset() {
	clear(d.dominates)
	clear(d.checked)
	d.count = 0
	d.shared = nil
	copy(d.groupLive, d.groupSizes)
	clear(d.groupChecked)
}

// known returns how many distinct dominators of q the whole query has
// found: the count shared across workers when the scan is sharded, the
// buffer's own count otherwise.
func (d *domin) known() int {
	if d.shared != nil {
		return int(d.shared.count.Load())
	}
	return d.count
}

// has reports whether point pj is a known dominator of q.
func (d *domin) has(pj int) bool { return d.dominates[pj] }

// observe tests dominance of p over q once; subsequent calls are free.
func (d *domin) observe(pj int, p, q vec.Vector) {
	if d.checked[pj] {
		return
	}
	d.checked[pj] = true
	if d.groupChecked != nil {
		d.groupChecked[d.groupOf[pj]]++
	}
	if vec.Dominates(p, q) {
		d.dominates[pj] = true
		d.count++
		if d.groupLive != nil {
			d.groupLive[d.groupOf[pj]]--
		}
		if d.shared != nil {
			d.shared.claim(pj)
		}
	}
}

// maxInt is the unbounded cutoff used before a k-ranks heap fills.
const maxInt = int(^uint(0) >> 1)
