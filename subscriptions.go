package gridrank

// Continuous reverse-rank subscriptions (internal/sub) wiring: the
// Subscribe surface, the publish hooks the mutation paths call, and the
// stats surface. A subscription monitors one (q, k, kind) reverse rank
// answer set; on every epoch install the registry diffs only the
// perturbed region and emits enter/leave events. The hooks run under
// ix.mu immediately after the epoch store — the exact sequencing of the
// answer-cache hooks in answercache.go — so the event stream observes
// epochs in install order with no gaps. DESIGN.md §15 argues the diff
// pass's soundness.

import (
	"context"
	"errors"
	"fmt"

	"gridrank/internal/algo"
	"gridrank/internal/flight"
	"gridrank/internal/sub"
	"gridrank/internal/trace"
)

// SubKind selects the query a subscription monitors.
type SubKind = sub.Kind

// Subscription kinds.
const (
	// SubReverseTopK monitors the reverse top-k answer set of (q, k).
	SubReverseTopK = sub.KindTopK
	// SubReverseKRanks monitors the reverse k-ranks answer set of (q, k).
	SubReverseKRanks = sub.KindKRanks
)

// SubEvent is one enter/leave change of a subscription's answer set.
type SubEvent = sub.Event

// Subscription event types.
const (
	SubEnter = sub.Enter
	SubLeave = sub.Leave
)

// SubMember is one current member of a subscription's answer set.
type SubMember = sub.Member

// ErrTooManySubscribers reports a Subscribe against a full registry
// (see SetSubscriberLimit).
var ErrTooManySubscribers = sub.ErrLimit

// DefaultSubEventBuffer is the per-subscription event buffer used when
// Subscribe is called with buffer <= 0.
const DefaultSubEventBuffer = 256

// SubStats is a snapshot of the subscription registry's counters.
type SubStats struct {
	Monitors     int64 // currently registered subscriptions
	Subscribed   int64 // subscriptions ever registered
	Unsubscribed int64 // subscriptions closed by their owners
	Events       int64 // enter/leave events delivered
	Lagged       int64 // subscriptions cancelled for a full buffer

	DiffPasses int64 // single-mutation epochs diffed incrementally
	FullPasses int64 // rebuild epochs recomputed per monitor
	GatedSkips int64 // monitor×epoch pairs skipped by the dominance gate

	PrefsDiffEvaluated    int64 // preference vectors examined by diff passes
	PrefsDiffFullCost     int64 // what full recomputes would have examined there
	PrefsRebuildEvaluated int64 // preference vectors examined on rebuild epochs
}

// Subscription is a live monitor over one reverse rank answer set.
type Subscription struct {
	ix      *Index
	m       *sub.Monitor
	initial []SubMember
}

// ID returns the subscription's index-unique id.
func (s *Subscription) ID() uint64 { return s.m.ID() }

// Kind returns the monitored query kind.
func (s *Subscription) Kind() SubKind { return s.m.Kind() }

// K returns the monitored k.
func (s *Subscription) K() int { return s.m.K() }

// Query returns the monitored point. The caller must not mutate it.
func (s *Subscription) Query() Vector { return s.m.Query() }

// Initial returns the answer set at subscribe time, ascending by
// preference id. Events describe changes relative to it.
func (s *Subscription) Initial() []SubMember { return s.initial }

// Events is the subscription's event stream. An epoch's events are
// fully buffered before the mutation that installed it returns. The
// channel closes when the subscription ends — via Close, or when the
// consumer fell behind (Lagged reports which).
func (s *Subscription) Events() <-chan SubEvent { return s.m.Events() }

// Lagged reports that the index cancelled this subscription because its
// event buffer overflowed: the stream is incomplete and the consumer
// must re-subscribe to resynchronize.
func (s *Subscription) Lagged() bool { return s.m.Lagged() }

// Close ends the subscription and closes its event channel. Closing an
// already-ended subscription is a no-op.
func (s *Subscription) Close() {
	s.ix.mu.Lock()
	defer s.ix.mu.Unlock()
	if r := s.ix.subs.Load(); r != nil {
		if r.Unsubscribe(s.m.ID()) {
			s.ix.recordSubEvent(flight.OpUnsubscribe, s.m.K(), subKindCode(s.m.Kind()), int64(s.m.ID()))
		}
	}
}

// SetSubscriberLimit bounds the number of live subscriptions (0 =
// unlimited, the default). Lowering the limit below the current count
// keeps existing subscriptions and only refuses new ones.
func (ix *Index) SetSubscriberLimit(n int) error {
	if n < 0 {
		return fmt.Errorf("gridrank: subscriber limit must be non-negative, got %d", n)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.registry().SetLimit(n)
	return nil
}

// SetSubscriptionTracer attaches a tracer to the subscription diff
// pass: each notified epoch records a span tree (diff vs rebuild, per
// pass) under the tracer's usual sampling rules. nil detaches.
func (ix *Index) SetSubscriptionTracer(t *trace.Tracer) {
	ix.mu.Lock()
	ix.subTracer = t
	ix.mu.Unlock()
}

// Subscribe registers a monitor over the (q, k, kind) reverse rank
// answer set. The initial membership (Subscription.Initial) is computed
// against the epoch current at the call, and every later epoch's
// changes arrive on Events before the installing mutation returns.
// buffer bounds undelivered events (<= 0 uses DefaultSubEventBuffer); a
// subscriber that lets it fill is cancelled with Lagged set rather than
// sent a gapped stream.
func (ix *Index) Subscribe(q Vector, k int, kind SubKind, buffer int) (*Subscription, error) {
	if err := ix.checkQuery(q, k); err != nil {
		return nil, err
	}
	if kind != SubReverseTopK && kind != SubReverseKRanks {
		return nil, errors.New("gridrank: unknown subscription kind")
	}
	if buffer <= 0 {
		buffer = DefaultSubEventBuffer
	}
	// Serialized with mutators: the initial set and the event stream
	// splice at exactly one epoch boundary.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m, err := ix.registry().Subscribe(q, k, kind, buffer, subSnapshot(ix.snap()))
	if err != nil {
		return nil, err
	}
	s := &Subscription{ix: ix, m: m}
	if mem, ok := ix.registry().Members(m.ID()); ok {
		s.initial = mem
	}
	ix.recordSubEvent(flight.OpSubscribe, k, subKindCode(kind), int64(m.ID()))
	return s, nil
}

// subKindCode maps a subscription kind to its flight-record Aux1 code.
func subKindCode(kind SubKind) int64 {
	if kind == SubReverseKRanks {
		return 1
	}
	return 0
}

// SubscriptionStats returns the subscription registry's counters. The
// zero value is returned before the first Subscribe.
func (ix *Index) SubscriptionStats() SubStats {
	r := ix.subs.Load()
	if r == nil {
		return SubStats{}
	}
	c := r.Counts()
	return SubStats{
		Monitors:              c.Monitors,
		Subscribed:            c.Subscribed,
		Unsubscribed:          c.Unsubscribed,
		Events:                c.Events,
		Lagged:                c.Lagged,
		DiffPasses:            c.DiffPasses,
		FullPasses:            c.FullPasses,
		GatedSkips:            c.GatedSkips,
		PrefsDiffEvaluated:    c.PrefsDiffEvaluated,
		PrefsDiffFullCost:     c.PrefsDiffFullCost,
		PrefsRebuildEvaluated: c.PrefsRebuildEvaluated,
	}
}

// registry returns the subscription registry, creating it on first use
// (ix.mu held).
func (ix *Index) registry() *sub.Registry {
	if r := ix.subs.Load(); r != nil {
		return r
	}
	r := sub.NewRegistry(0)
	ix.subs.Store(r)
	return r
}

// subSnapshot wraps an epoch's rank machinery as the closures the
// registry diffs against.
func subSnapshot(e *epoch) sub.Snapshot {
	return sub.Snapshot{
		Seq:      e.seq,
		NumPrefs: e.wm.Len(),
		RankOf: func(wi int, q []float64, cutoff int) (int, bool) {
			return e.gir.RankOf(wi, q, cutoff)
		},
		Pref: e.wm.Row,
		// A background context cannot cancel, so the error is always nil.
		TopKSet: func(q []float64, k int) []int {
			set, _ := e.gir.ReverseTopKOpts(context.Background(), q, k, algo.QueryOpts{})
			return set
		},
		KRanksSet: func(q []float64, k int) []sub.Member {
			ms, _ := e.gir.ReverseKRanksOpts(context.Background(), q, k, algo.QueryOpts{})
			out := make([]sub.Member, len(ms))
			for i, m := range ms {
				out[i] = sub.Member{Pref: m.WeightIndex, Rank: m.Rank}
			}
			return out
		},
	}
}

// The publish hooks below run under ix.mu, immediately after the
// mutation stored its epoch and after the answer-cache hook — cache
// maintenance first, then event fan-out, both serialized with the
// install they describe.

// subDiffTrace opens a diff-pass trace when a tracer is attached
// (ix.mu held, so the field read is ordered with SetSubscriptionTracer).
func (ix *Index) subDiffTrace(op string, seq uint64) *trace.Trace {
	t := ix.subTracer
	if !t.Enabled() || ix.subs.Load() == nil {
		return nil
	}
	tr := t.Start("sub.diff", trace.Parent{})
	tr.SetAttr("op", op)
	tr.SetAttr("epoch", seq)
	return tr
}

// subFinish closes a diff-pass trace with the registry's counters.
func (ix *Index) subFinish(tr *trace.Trace) {
	if tr == nil {
		return
	}
	if r := ix.subs.Load(); r != nil {
		c := r.Counts()
		tr.SetAttr("monitors", c.Monitors)
		tr.SetAttr("prefsDiffEvaluated", c.PrefsDiffEvaluated)
	}
	tr.Finish()
}

// subOnProduct diffs subscriptions after a single-product insert or
// delete; row is the inserted point or the deleted point's former
// attributes.
func (ix *Index) subOnProduct(ne *epoch, row Vector, inserted bool) {
	r := ix.subs.Load()
	if r == nil {
		return
	}
	op := "insert_product"
	if !inserted {
		op = "delete_product"
	}
	tr := ix.subDiffTrace(op, ne.seq)
	sp := tr.StartSpan("diff.product")
	r.OnProductMutation(subSnapshot(ne), row, inserted)
	sp.End()
	ix.subFinish(tr)
}

// subOnPrefInsert diffs subscriptions after a single-preference insert.
func (ix *Index) subOnPrefInsert(ne *epoch, id int) {
	r := ix.subs.Load()
	if r == nil {
		return
	}
	tr := ix.subDiffTrace("insert_preference", ne.seq)
	sp := tr.StartSpan("diff.preference")
	r.OnPreferenceInsert(subSnapshot(ne), id)
	sp.End()
	ix.subFinish(tr)
}

// subOnPrefDelete diffs subscriptions after a single-preference delete;
// oldCount is the preference count before the delete.
func (ix *Index) subOnPrefDelete(ne *epoch, id, oldCount int) {
	r := ix.subs.Load()
	if r == nil {
		return
	}
	tr := ix.subDiffTrace("delete_preference", ne.seq)
	sp := tr.StartSpan("diff.preference")
	r.OnPreferenceDelete(subSnapshot(ne), id, oldCount)
	sp.End()
	ix.subFinish(tr)
}

// subOnRebuild recomputes every subscription against a rebuilt epoch
// (the batch mutation paths).
func (ix *Index) subOnRebuild(ne *epoch) {
	r := ix.subs.Load()
	if r == nil {
		return
	}
	tr := ix.subDiffTrace("rebuild", ne.seq)
	sp := tr.StartSpan("recompute")
	r.OnRebuild(subSnapshot(ne))
	sp.End()
	ix.subFinish(tr)
}
