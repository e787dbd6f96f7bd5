package gridrank

// The context-first query API. ReverseTopKCtx and ReverseKRanksCtx are
// the two entrypoints every other query method of Index reduces to: they
// take a context for cancellation and deadlines, and functional options
// for the per-call knobs that previously each demanded a dedicated
// method (explicit worker counts, work statistics). The request
// lifecycle is
//
//	ctx (cancellation, deadline)
//	  → option resolution (workers, stats sink)
//	    → validation (dimensions, finiteness, k)
//	      → GIR scan, polling ctx once per preference chunk
//
// A query whose context is cancelled or expires stops within one
// preference chunk on every goroutine and returns ctx.Err(); the stats
// sink of WithStats is still filled with the work performed up to that
// point, so an observability layer can account for abandoned work.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gridrank/internal/algo"
	"gridrank/internal/cache"
	"gridrank/internal/flight"
	"gridrank/internal/stats"
	"gridrank/internal/trace"
)

// QueryOption configures one call of the context-first query API
// (ReverseTopKCtx, ReverseKRanksCtx). Options are applied in order
// before validation; a nil option is rejected.
type QueryOption func(*queryConfig) error

// queryConfig is the resolved per-call configuration.
type queryConfig struct {
	// workers is the intra-query worker count: -1 selects the index
	// default (Options.Parallelism / SetParallelism), 0 means GOMAXPROCS,
	// 1 forces the sequential scan, larger values shard W across that
	// many goroutines.
	workers int
	// stats, when non-nil, receives the query's work statistics.
	stats *Stats
	// tr, when non-nil, receives the query's execution spans.
	tr *trace.Trace
	// noCache bypasses the answer cache for this call (WithoutCache).
	noCache bool
	// servedEpoch, when non-nil, receives the epoch the answer is valid
	// against (WithServedEpoch).
	servedEpoch *uint64
}

// WithWorkers sets the intra-query worker count for a single call,
// overriding the index default: 1 forces the sequential scan, values
// above 1 shard the preference set across that many goroutines, and 0
// means GOMAXPROCS. The answer is bit-identical for every worker count;
// negative counts are rejected with ErrBadParallelism.
func WithWorkers(n int) QueryOption {
	return func(cfg *queryConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: got %d", ErrBadParallelism, n)
		}
		cfg.workers = n
		return nil
	}
}

// WithStats directs the query's work statistics into s. The sink is
// written exactly once, when the query returns — including on
// cancellation, where it holds the work performed before the context
// fired.
func WithStats(s *Stats) QueryOption {
	return func(cfg *queryConfig) error {
		if s == nil {
			return fmt.Errorf("gridrank: WithStats requires a non-nil sink")
		}
		cfg.stats = s
		return nil
	}
}

// WithTrace attaches the query to tr, an in-flight per-query trace from
// internal/trace: the snapshot load, the grid scan (with its Case-1/2/3
// breakdown), any parallel workers and the result merge each record a
// span. The HTTP server and the CLI's -explain mode construct traces;
// the trace is safe for use across the concurrent queries of a batch. A
// nil tr is allowed and means "not traced" — the query path then does no
// tracing work at all, so callers can pass their maybe-nil trace
// unconditionally.
func WithTrace(tr *trace.Trace) QueryOption {
	return func(cfg *queryConfig) error {
		cfg.tr = tr
		return nil
	}
}

// WithoutCache bypasses the answer cache for a single call: the query
// always runs the scan against the current snapshot, and its answer is
// not stored. Useful for measurements and for the cache's own
// correctness harness; answers are identical either way.
func WithoutCache() QueryOption {
	return func(cfg *queryConfig) error {
		cfg.noCache = true
		return nil
	}
}

// WithServedEpoch directs the epoch the answer is valid against into e,
// written exactly once when the query returns: the snapshot epoch when
// the scan ran, or the cached entry's epoch on an answer-cache hit (a
// cached answer may carry an older epoch than the current one — the
// invalidation sweeps guarantee it is still exact; see DESIGN.md §12).
func WithServedEpoch(e *uint64) QueryOption {
	return func(cfg *queryConfig) error {
		if e == nil {
			return fmt.Errorf("gridrank: WithServedEpoch requires a non-nil sink")
		}
		cfg.servedEpoch = e
		return nil
	}
}

// resolveOptions folds opts over the default configuration.
func resolveOptions(opts []QueryOption) (queryConfig, error) {
	cfg := queryConfig{workers: -1}
	for _, o := range opts {
		if o == nil {
			return cfg, fmt.Errorf("gridrank: nil QueryOption")
		}
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// resolveWorkers maps the option value to the explicit count the algo
// layer expects (always >= 1).
func (cfg *queryConfig) resolveWorkers(ix *Index) int {
	switch {
	case cfg.workers < 0: // index default
		if p := int(ix.par.Load()); p > 1 {
			return p
		}
		return 1
	case cfg.workers == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return cfg.workers
	}
}

// counters returns the stats sink for the algo layer: nil (counting
// disabled) unless the caller asked for statistics.
func (cfg *queryConfig) counters() *stats.Counters {
	if cfg.stats == nil {
		return nil
	}
	return new(stats.Counters)
}

// finish publishes the counters into the caller's sink.
func (cfg *queryConfig) finish(c *stats.Counters) {
	if cfg.stats != nil {
		*cfg.stats = fromCounters(c)
	}
}

// served publishes the answer's epoch into the caller's sink.
func (cfg *queryConfig) served(seq uint64) {
	if cfg.servedEpoch != nil {
		*cfg.servedEpoch = seq
	}
}

// cases copies the scan's case breakdown into the flight digest. c is
// nil unless the caller asked for stats (WithStats) — counters are not
// collected otherwise, so unstatted queries record zeros rather than
// paying for collection.
func (dig *queryDigest) cases(c *stats.Counters) {
	if c != nil {
		dig.case1 = c.Case1Filtered
		dig.case2 = c.Case2Filtered
		dig.case3 = c.Refinements
	}
}

// ReverseTopKCtx returns, in ascending order, the indexes of every
// preference vector that places q within its top-k products. An empty
// answer means no user ranks q that highly (consider ReverseKRanksCtx).
//
// The context governs the whole query: when ctx is cancelled or its
// deadline passes, the scan stops within one preference chunk on every
// goroutine and the call returns ctx.Err(). Options tune the call:
// WithWorkers overrides the index's intra-query parallelism and
// WithStats captures work statistics.
//
// Every call — success, validation error or cancellation — leaves one
// digest in the always-on flight recorder (see FlightRecords).
func (ix *Index) ReverseTopKCtx(ctx context.Context, q Vector, k int, opts ...QueryOption) ([]int, error) {
	start := time.Now()
	res, dig, err := ix.reverseTopK(ctx, q, k, opts)
	ix.recordQuery(flight.OpReverseTopK, k, start, dig, err)
	return res, err
}

func (ix *Index) reverseTopK(ctx context.Context, q Vector, k int, opts []QueryOption) ([]int, queryDigest, error) {
	var dig queryDigest
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, dig, err
	}
	if err := ix.checkQuery(q, k); err != nil {
		return nil, dig, err
	}
	dig.traceHi, dig.traceLo = cfg.tr.IDPair()
	dig.sampled = cfg.tr.Sampled()
	c := cfg.counters()
	ac := ix.answers.Load()
	if ac != nil && !cfg.noCache {
		// Honour cancellation before serving from the cache, so a dead
		// context never "succeeds" just because the answer was resident.
		if err := ctx.Err(); err != nil {
			return nil, dig, err
		}
		lsp := cfg.tr.StartSpan("cache.lookup")
		if res, seq, ok := ac.LookupTopK(q, k); ok {
			lsp.SetInt("hit", 1).SetInt("epoch", int64(seq)).End()
			cfg.finish(c) // a hit performs no scan work: stats are zero
			cfg.served(seq)
			dig.epoch, dig.cacheHit = seq, true
			return res, dig, nil
		}
		lsp.SetInt("hit", 0).End()
	}
	// One snapshot load: the whole scan runs against a single epoch even
	// if mutations land mid-query.
	sp := cfg.tr.StartSpan("snapshot")
	ep := ix.snap()
	sp.SetInt("epoch", int64(ep.seq)).End()
	dig.epoch = ep.seq
	res, err := ep.gir.ReverseTopKOpts(ctx, q, k, algo.QueryOpts{
		Workers:  cfg.resolveWorkers(ix),
		Counters: c,
		Trace:    cfg.tr,
	})
	cfg.finish(c)
	dig.cases(c)
	if err != nil {
		return nil, dig, err
	}
	cfg.served(ep.seq)
	if ac != nil && !cfg.noCache {
		ssp := cfg.tr.StartSpan("cache.store")
		ac.StoreTopK(q, k, ep.seq, res)
		ssp.End()
	}
	return res, dig, nil
}

// ReverseKRanksCtx returns the k preference vectors ranking q best,
// ordered by ascending rank (ties toward smaller indexes). It never
// returns an empty answer for k >= 1 — if fewer than k preferences
// exist, all are returned.
//
// The context and options follow the same contract as ReverseTopKCtx,
// including the flight-recorder digest per call.
func (ix *Index) ReverseKRanksCtx(ctx context.Context, q Vector, k int, opts ...QueryOption) ([]Match, error) {
	start := time.Now()
	res, dig, err := ix.reverseKRanks(ctx, q, k, opts)
	ix.recordQuery(flight.OpReverseKRanks, k, start, dig, err)
	return res, err
}

func (ix *Index) reverseKRanks(ctx context.Context, q Vector, k int, opts []QueryOption) ([]Match, queryDigest, error) {
	var dig queryDigest
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, dig, err
	}
	if err := ix.checkQuery(q, k); err != nil {
		return nil, dig, err
	}
	dig.traceHi, dig.traceLo = cfg.tr.IDPair()
	dig.sampled = cfg.tr.Sampled()
	c := cfg.counters()
	ac := ix.answers.Load()
	if ac != nil && !cfg.noCache {
		if err := ctx.Err(); err != nil {
			return nil, dig, err
		}
		lsp := cfg.tr.StartSpan("cache.lookup")
		if cached, seq, ok := ac.LookupKRanks(q, k); ok {
			lsp.SetInt("hit", 1).SetInt("epoch", int64(seq)).End()
			cfg.finish(c)
			cfg.served(seq)
			dig.epoch, dig.cacheHit = seq, true
			out := make([]Match, len(cached))
			for i, m := range cached {
				out[i] = Match{WeightIndex: m.WeightIndex, Rank: m.Rank}
			}
			return out, dig, nil
		}
		lsp.SetInt("hit", 0).End()
	}
	sp := cfg.tr.StartSpan("snapshot")
	ep := ix.snap()
	sp.SetInt("epoch", int64(ep.seq)).End()
	dig.epoch = ep.seq
	matches, err := ep.gir.ReverseKRanksOpts(ctx, q, k, algo.QueryOpts{
		Workers:  cfg.resolveWorkers(ix),
		Counters: c,
		Trace:    cfg.tr,
	})
	cfg.finish(c)
	dig.cases(c)
	if err != nil {
		return nil, dig, err
	}
	cfg.served(ep.seq)
	out := make([]Match, len(matches))
	for i, m := range matches {
		out[i] = Match{WeightIndex: m.WeightIndex, Rank: m.Rank}
	}
	if ac != nil && !cfg.noCache {
		ssp := cfg.tr.StartSpan("cache.store")
		stored := make([]cache.Match, len(out))
		for i, m := range out {
			stored[i] = cache.Match{WeightIndex: m.WeightIndex, Rank: m.Rank}
		}
		ac.StoreKRanks(q, k, ep.seq, stored)
		ssp.End()
	}
	return out, dig, nil
}
