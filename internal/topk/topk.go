// Package topk implements top-k query evaluation (Definition 1 of the
// paper) and exact rank counting, the primitives every reverse-rank
// algorithm is defined against. It also provides the bounded result heap
// used by the reverse k-ranks algorithms (Algorithm 3's size-k heap).
package topk

import (
	"container/heap"
	"fmt"
	"sort"

	"gridrank/internal/stats"
	"gridrank/internal/vec"
)

// Result is one scored element of a top-k answer.
type Result struct {
	Index int     // position in the point set P
	Score float64 // f_w(p)
}

// TopK returns the k lowest-scoring points of P under w (minimum scores are
// preferable), ordered by ascending score with index as tie-breaker so the
// answer is deterministic. If k >= len(P) the full ranking is returned.
// Counts one pairwise multiplication per point into c (may be nil).
func TopK(P []vec.Vector, w vec.Vector, k int, c *stats.Counters) []Result {
	if k <= 0 {
		return nil
	}
	if k > len(P) {
		k = len(P)
	}
	// Bounded max-heap of the k best (smallest) scores seen so far. The
	// full scan visits every point unconditionally, so consecutive points
	// pair through the widened vec.Dot2 kernel (scores stay bit-identical
	// to per-point Dot calls); offers happen in index order either way.
	h := make(maxHeap, 0, k)
	offer := func(i int, s float64) {
		if c != nil {
			c.PairwiseMults++
			c.PointsVisited++
		}
		if len(h) < k {
			heap.Push(&h, Result{i, s})
		} else if less(Result{i, s}, h[0]) {
			h[0] = Result{i, s}
			heap.Fix(&h, 0)
		}
	}
	i := 0
	for ; i+2 <= len(P); i += 2 {
		s0, s1 := vec.Dot2(w, P[i], P[i+1])
		offer(i, s0)
		offer(i+1, s1)
	}
	if i < len(P) {
		offer(i, vec.Dot(w, P[i]))
	}
	out := make([]Result, len(h))
	copy(out, h)
	sort.Slice(out, func(a, b int) bool { return less(out[a], out[b]) })
	return out
}

// less orders results by ascending score, then ascending index.
func less(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index < b.Index
}

// maxHeap keeps the worst (largest) retained result at the root.
type maxHeap []Result

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return less(h[j], h[i]) }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Rank returns rank(w, q): the number of points of P with a score strictly
// below f_w(q) (the paper's Definition 3 count; q's 1-based position is
// Rank+1). Counts pairwise multiplications into c (may be nil).
func Rank(P []vec.Vector, w, q vec.Vector, c *stats.Counters) int {
	fq := vec.Dot(w, q)
	if c != nil {
		c.PairwiseMults++
	}
	// Full scan with no early exit: pair consecutive points through
	// vec.Dot2 (bit-identical scores, same counters). Early-exit scans
	// deliberately stay per-point — a cutoff exit must not pay for a
	// speculative second score.
	rank := 0
	i := 0
	for ; i+2 <= len(P); i += 2 {
		if c != nil {
			c.PairwiseMults += 2
			c.PointsVisited += 2
		}
		s0, s1 := vec.Dot2(w, P[i], P[i+1])
		if s0 < fq {
			rank++
		}
		if s1 < fq {
			rank++
		}
	}
	if i < len(P) {
		if c != nil {
			c.PairwiseMults++
			c.PointsVisited++
		}
		if vec.Dot(w, P[i]) < fq {
			rank++
		}
	}
	return rank
}

// Match is one element of a reverse k-ranks answer: a weight vector index
// and q's rank under it.
type Match struct {
	WeightIndex int
	Rank        int
}

// matchWorse orders matches by descending rank then descending index, so
// the root of a max-heap holds the current worst retained match and ties
// resolve toward keeping the lowest weight indexes (deterministic answers).
func matchWorse(a, b Match) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	return a.WeightIndex > b.WeightIndex
}

// KRankHeap is the bounded heap of Algorithm 3: it retains the k weight
// vectors with the smallest rank seen so far and exposes the current
// admission threshold (minRank) used to early-terminate rank counting.
//
// The heap operations are hand-rolled over []Match rather than going
// through container/heap: the interface{} indirection there boxes every
// pushed Match, which is the difference between a zero-allocation and an
// O(k)-allocation steady-state query (see DESIGN.md §9).
type KRankHeap struct {
	k int
	h []Match
}

// NewKRankHeap creates a heap retaining the best k matches. It panics when
// k < 1.
func NewKRankHeap(k int) *KRankHeap {
	if k < 1 {
		panic(fmt.Sprintf("topk: KRankHeap needs k >= 1, got %d", k))
	}
	return &KRankHeap{k: k}
}

// Len returns the number of retained matches.
func (kh *KRankHeap) Len() int { return len(kh.h) }

// Reset empties the heap and re-arms it for a new query retaining k
// matches, reusing the backing array. It panics when k < 1.
func (kh *KRankHeap) Reset(k int) {
	if k < 1 {
		panic(fmt.Sprintf("topk: KRankHeap needs k >= 1, got %d", k))
	}
	kh.k = k
	kh.h = kh.h[:0]
}

// Threshold returns the current admission cutoff: a new match must have
// rank strictly below the worst retained rank once the heap is full
// (matching Algorithm 3's minRank update; equal ranks keep the earlier
// weight index). Before the heap fills, every rank is admissible and the
// threshold is maxInt.
func (kh *KRankHeap) Threshold() int {
	if len(kh.h) < kh.k {
		return int(^uint(0) >> 1)
	}
	return kh.h[0].Rank
}

// Offer inserts a match if it beats the current threshold, evicting the
// worst retained match when full. It reports whether the match was kept.
func (kh *KRankHeap) Offer(m Match) bool {
	if len(kh.h) < kh.k {
		kh.h = append(kh.h, m)
		siftUpMatch(kh.h, len(kh.h)-1)
		return true
	}
	if !matchWorse(kh.h[0], m) {
		return false
	}
	kh.h[0] = m
	siftDownMatch(kh.h, 0)
	return true
}

// Results returns the retained matches ordered by ascending rank, then
// ascending weight index. The copy is heapsorted in place (it inherits
// the heap invariant from the retained slice), so the returned slice is
// the only allocation.
func (kh *KRankHeap) Results() []Match {
	out := make([]Match, len(kh.h))
	copy(out, kh.h)
	// Repeatedly swap the worst match (root) to the end: ascending
	// (rank, index) order falls out.
	for i := len(out) - 1; i > 0; i-- {
		out[0], out[i] = out[i], out[0]
		siftDownMatch(out[:i], 0)
	}
	return out
}

// siftUpMatch restores the max-heap invariant (worst match at the root
// under matchWorse) after appending at index i.
func siftUpMatch(h []Match, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !matchWorse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDownMatch restores the invariant after replacing the element at
// index i.
func siftDownMatch(h []Match, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && matchWorse(h[l], h[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && matchWorse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
