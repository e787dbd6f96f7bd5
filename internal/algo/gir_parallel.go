package algo

import (
	"context"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"gridrank/internal/stats"
	"gridrank/internal/topk"
	"gridrank/internal/trace"
	"gridrank/internal/vec"
)

// Intra-query parallel execution of the GIR algorithms.
//
// A one-worker GIR query runs its scan loop (scanTopK / scanKRanks in
// gir.go) inline on the caller's goroutine; batch.go only parallelizes
// across queries, so a single large query (the paper's market-analysis
// case) leaves all but one core idle. The sharded scan runs the SAME loop
// on a worker pool: each worker claims contiguous chunks of the visit
// order from an atomic cursor and scans them with private per-worker
// state — its own Domin buffer, bounds scratch, heap and stats.Counters —
// merged deterministically at the end.
//
// Two pieces of cross-worker pruning state keep the sharded scan as
// effective as the one-worker scan:
//
//   - RTK (Algorithm 2 lines 7–8): the global-dominator early exit needs
//     the number of DISTINCT points known to dominate q across all
//     workers. A plain shared counter would double-count a dominator
//     discovered independently by two workers and could fire the empty
//     answer prematurely, so sharedDomin deduplicates through a CAS
//     bitset and counts only first claims.
//
//   - RKR (Algorithm 3): the heap cutoff h.Threshold() becomes an atomic
//     watermark. Whenever a worker's local size-k heap is full, its worst
//     retained rank T proves k matches with rank ≤ T exist, so every
//     worker may prune any weight whose running rank exceeds T (cutoff
//     T+1). The watermark is the CAS-minimum of all published T values.
//
// Determinism: results are bit-identical to the one-worker scan. Workers
// claim chunks of POSITIONS in the cell-sorted visit order (the same
// order the one-worker scan uses, so both share the weight-group scratch
// reuse); a worker's shard is therefore an arbitrary subsequence
// of W by index, and every pruning cutoff — the local heap threshold as
// well as the watermark — uses T+1, not T, so rank == T candidates,
// which can still win (rank, index) ties, are always refined exactly.
// The global answer is recovered by re-sorting the merged candidates on
// the (rank, index) total order. See DESIGN.md §7 and §9.

// normalizeWorkers resolves a worker-count request: 1 or less means one
// worker, and a query never uses more workers than weight vectors.
func normalizeWorkers(workers, nW int) int {
	return max(min(workers, nW), 1)
}

// parallelChunk sizes the unit of work workers claim from the shared
// cursor: small enough for load balance across skewed shards, large
// enough that the atomic claim is amortized over many rank evaluations.
// The cancelChunk ceiling bounds how much work a worker performs between
// context polls, so a cancelled query stops within one chunk.
func parallelChunk(nW, workers int) int {
	chunk := nW / (8 * workers)
	if chunk < 16 {
		chunk = 16
	}
	if chunk > cancelChunk {
		chunk = cancelChunk
	}
	return chunk
}

// sharedDomin tracks the distinct dominators of q discovered by any
// worker. Local Domin buffers publish first discoveries here; the count
// is exact (never double-counts a point), which makes the Algorithm 2
// early exit safe under sharding.
type sharedDomin struct {
	words []atomic.Uint64 // claim bitset, one bit per point
	count atomic.Int64    // number of distinct set bits
}

func newSharedDomin(n int) *sharedDomin {
	return &sharedDomin{words: make([]atomic.Uint64, (n+63)/64)}
}

// claim marks point pj as a dominator; only the first claimer increments
// the count.
func (s *sharedDomin) claim(pj int) {
	w := &s.words[pj>>6]
	bit := uint64(1) << uint(pj&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			s.count.Add(1)
			return
		}
	}
}

// rankWatermark is the shared RKR admission bound: the minimum worst
// retained rank over every full per-worker heap. Initialized to maxInt
// (no bound) and monotonically tightened with CAS. A nil watermark — the
// one-worker scan's — never tightens and never bounds the cutoff.
type rankWatermark struct {
	v atomic.Int64
}

func newRankWatermark() *rankWatermark {
	wm := &rankWatermark{}
	wm.v.Store(int64(maxInt))
	return wm
}

// tighten lowers the watermark to t if t is smaller.
func (wm *rankWatermark) tighten(t int) {
	if wm == nil {
		return
	}
	for {
		cur := wm.v.Load()
		if int64(t) >= cur {
			return
		}
		if wm.v.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// cutoff combines a worker's local heap threshold with the global
// watermark: prune at the local threshold (safe within the worker's
// ascending shard) or one past the watermark (safe globally), whichever
// is tighter.
func (wm *rankWatermark) cutoff(local int) int {
	if wm == nil {
		return local
	}
	g := wm.v.Load()
	if g < int64(maxInt) && int(g)+1 < local {
		return int(g) + 1
	}
	return local
}

// scanLabels builds the pprof label set stamped on every scan worker
// goroutine, so a goroutine or CPU profile taken during an incident
// attributes worker time to the query kind and its k (go tool pprof
// -tagfocus rrq_query=reverse_topk ...).
func scanLabels(kind string, k int) pprof.LabelSet {
	return pprof.Labels("rrq_query", kind, "rrq_k", strconv.Itoa(k))
}

// claimChunk hands out the next unclaimed chunk of order from cursor,
// reporting false once the order is exhausted.
func claimChunk(cursor *atomic.Int64, chunk int, order []int32) ([]int32, bool) {
	end := int(cursor.Add(int64(chunk)))
	start := end - chunk
	if start >= len(order) {
		return nil, false
	}
	return order[start:min(end, len(order))], true
}

// workerOut is one scan worker's private state: its pooled query state
// (the coordinator gets and returns it, so the worker's results stay
// readable after the join) and its counters, merged after the join.
// The counters take several increments per bound evaluation, so the
// padding keeps neighbouring workers' counters off each other's cache
// lines: without it the sharded k-ranks scan measured ~25% slower at two
// workers from false sharing.
type workerOut struct {
	st *queryState
	c  stats.Counters
	_  [64]byte
}

// runWorkers gets a query state per worker and runs work on each
// worker's goroutine under the scan's pprof labels and a scan.worker
// child span; work returns how many weights the worker scanned. It
// returns after every worker has finished, so cancellation never leaks
// a goroutine; the caller merges the outputs and returns the states with
// putStates.
func (gr *GIR) runWorkers(ctx context.Context, sp *trace.Span, lbls pprof.LabelSet, workers int, work func(out *workerOut) int) []workerOut {
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	for w := range outs {
		outs[w].st = gr.getState()
		wg.Add(1)
		go func(widx int, out *workerOut) {
			defer wg.Done()
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, lbls))
			wsp := sp.Child("scan.worker")
			wsp.SetInt("worker", int64(widx))
			endWorkerSpan(wsp, &out.c, work(out))
		}(w, &outs[w])
	}
	wg.Wait()
	return outs
}

func (gr *GIR) putStates(outs []workerOut) {
	for w := range outs {
		gr.putState(outs[w].st)
	}
}

// mergeCounters folds the workers' counters into c, returning the
// counters the scan span reports: c itself, or a local merge when the
// caller asked for no stats but the span is recording.
func mergeCounters(c *stats.Counters, sp *trace.Span, outs []workerOut) *stats.Counters {
	if c == nil {
		if sp == nil {
			return nil
		}
		c = new(stats.Counters)
	}
	for w := range outs {
		c.Add(&outs[w].c)
	}
	return c
}

// reverseTopKParallel is GIRTop-k (Algorithm 2) sharded over workers
// goroutines, each running scanTopK over the chunks it claims. Callers
// guarantee workers >= 2, k >= 1 and a live ctx on entry. Workers poll
// ctx between chunk claims (chunks are capped at cancelChunk weights),
// so cancellation stops every worker within one chunk; the coordinator
// then joins them all and returns ctx.Err().
func (gr *GIR) reverseTopKParallel(ctx context.Context, q vec.Vector, k, workers int, c *stats.Counters, tr *trace.Trace) ([]int, error) {
	shared := newSharedDomin(gr.pm.Len())
	var cursor atomic.Int64
	chunk := parallelChunk(gr.wm.Len(), workers)
	order := gr.wg.MemberOrder()
	sp := tr.StartSpan("scan")
	sp.SetInt("workers", int64(workers))
	outs := gr.runWorkers(ctx, sp, scanLabels("reverse_topk", k), workers, func(out *workerOut) int {
		out.st.dom.shared = shared
		scanned := 0
		for shared.count.Load() < int64(k) && ctx.Err() == nil {
			part, ok := claimChunk(&cursor, chunk, order)
			if !ok {
				break
			}
			// A chunk never spans a poll point; the loop condition polls
			// ctx and the coordinator reports ctx.Err() after the join.
			n, _ := gr.scanTopK(ctx, part, q, k, out.st, &out.c)
			scanned += n
		}
		return scanned
	})
	defer gr.putStates(outs)
	base := counterBaseline(sp, c)
	dominators := int(shared.count.Load())
	endScanSpan(sp, mergeCounters(c, sp, outs), base, dominators, k, gr.wm.Len())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Algorithm 2 lines 7–8, sharded: k distinct dominators imply every
	// weight ranks q at k or worse, so the answer is empty — exactly what
	// the one-worker early exit returns.
	if dominators >= k {
		return nil, nil
	}
	msp := tr.StartSpan("merge")
	var res []int
	for w := range outs {
		res = append(res, outs[w].st.res...)
	}
	sort.Ints(res)
	msp.SetInt("results", int64(len(res))).End()
	return res, nil
}

// endWorkerSpan closes one scan.worker span with the worker's private
// counter breakdown and how many weights it claimed. Free when tracing
// is off (nil span).
func endWorkerSpan(wsp *trace.Span, c *stats.Counters, scanned int) {
	if wsp == nil {
		return
	}
	wsp.SetInt("weights_scanned", int64(scanned))
	endScanSpan(wsp, c, stats.Counters{}, -1, -1, -1)
}

// reverseKRanksParallel is GIRk-Rank (Algorithm 3) sharded over workers
// goroutines, each running scanKRanks over the chunks it claims with a
// private heap and the shared watermark. Callers guarantee workers >= 2,
// k >= 1 and a live ctx on entry; the cancellation contract matches
// reverseTopKParallel.
func (gr *GIR) reverseKRanksParallel(ctx context.Context, q vec.Vector, k, workers int, c *stats.Counters, tr *trace.Trace) ([]topk.Match, error) {
	wm := newRankWatermark()
	var cursor atomic.Int64
	chunk := parallelChunk(gr.wm.Len(), workers)
	order := gr.wg.MemberOrder()
	sp := tr.StartSpan("scan")
	sp.SetInt("workers", int64(workers))
	outs := gr.runWorkers(ctx, sp, scanLabels("reverse_kranks", k), workers, func(out *workerOut) int {
		out.st.heap.Reset(k)
		scanned := 0
		for ctx.Err() == nil {
			part, ok := claimChunk(&cursor, chunk, order)
			if !ok {
				break
			}
			// The shard is not ascending by weight index, so even the
			// local threshold must admit rank == T ties: scanKRanks uses
			// T+1, the same rule as the watermark. Cancellation is
			// polled and reported as in reverseTopKParallel.
			_, _ = gr.scanKRanks(ctx, part, q, k, out.st, wm, &out.c)
			scanned += len(part)
		}
		return scanned
	})
	defer gr.putStates(outs)
	base := counterBaseline(sp, c)
	var all []topk.Match
	for w := range outs {
		all = append(all, outs[w].st.heap.Results()...)
	}
	if sp != nil {
		sp.SetInt("cutoff_final", cutoffAttr(int(wm.v.Load())))
	}
	endScanSpan(sp, mergeCounters(c, sp, outs), base, -1, -1, gr.wm.Len())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	msp := tr.StartSpan("merge")
	// Every global top-k match survives some worker's local heap (a
	// worker's heap keeps its shard's k best, a superset of the shard's
	// contribution to the global answer), so sorting the union on the
	// (rank, index) order and truncating reproduces the one-worker answer
	// exactly.
	sort.Slice(all, func(a, b int) bool {
		if all[a].Rank != all[b].Rank {
			return all[a].Rank < all[b].Rank
		}
		return all[a].WeightIndex < all[b].WeightIndex
	})
	if len(all) > k {
		all = all[:k]
	}
	msp.SetInt("results", int64(len(all))).End()
	return all, nil
}
