package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the user-visible metrics from the untraced pass.
// A percentile appears only when the run holds enough samples for it.
func (r *run) endToEnd() map[string]metric {
	p := r.passes[0]
	m := map[string]metric{
		"setup_s": {median(append([]float64(nil), r.setups...)), "s"},
		"heap_mb": {(p.heap - r.baseHeap) / (1 << 20), "MiB"},
	}
	attempted, failed, completed := counts(p.samples, true)
	m["qps"] = metric{float64(completed) / p.elapsed.Seconds(), "ops/s"}
	m["fail_frac"] = metric{float64(failed) / float64(max(attempted, 1)), "ratio"}
	for c := 0; c < numClasses; c++ {
		lat := r.latencies(p, c)
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			// +Inf: so many ops failed that the percentile is one of them.
			if v, ok := percentile(append([]float64(nil), lat...), q.p); ok && !math.IsInf(v, 1) {
				m[fmt.Sprintf("%s_%s_ms", classNames[c], q.name)] = metric{v, "ms"}
			}
		}
	}
	return m
}

// counts returns how many ops a pass attempted, how many failed and how
// many completed without failing. An op an open loop dropped counts as
// attempted and failed when withDropped is set (the untraced pass, where
// it is a request the system never served); traced passes are capped
// diagnostics and leave such ops out.
func counts(samples []sample, withDropped bool) (attempted, failed, completed int) {
	for i := range samples {
		s := &samples[i]
		switch {
		case s.dropped && withDropped:
			attempted++
			failed++
		case !s.started:
		case s.failed:
			attempted++
			failed++
		default:
			attempted++
			completed++
		}
	}
	return
}

// latencies returns the latency in ms of every started op of class c
// in pass p. A failed or dropped op counts as +Inf: it missed any
// latency limit.
func (r *run) latencies(p *pass, c int) []float64 {
	var xs []float64
	for i := range p.samples {
		s := &p.samples[i]
		switch {
		case r.w.Ops[i].Kind.class() != c || !(s.started || s.dropped):
		case s.failed || s.dropped:
			xs = append(xs, math.Inf(1))
		default:
			xs = append(xs, ms(s.latency()))
		}
	}
	return xs
}

// perLayer computes the traced run's layer metrics. Metrics a workload
// cannot support (no ops of that class, or too few samples for a
// percentile) are absent; the caller reports them as 0.
func (r *run) perLayer() map[string]metric {
	w, p0 := r.w, r.passes[0]
	m := map[string]metric{}
	e2e := r.endToEnd()
	for _, name := range []string{"rtk_p99_ms", "rkr_p99_ms", "mut_p50_ms", "mut_p99_ms", "fail_frac"} {
		if v, ok := e2e[name]; ok {
			m[name] = v
		}
	}

	// loadgen: was the run itself valid?
	attempted, _, _ := counts(p0.samples, true)
	m["loadgen.sent"] = metric{float64(attempted), "count"}
	late := 0.0
	if w.Rate > 0 {
		late, _ = percentile(lateness(p0.samples), 0.99)
	}
	m["loadgen.late_p99_ms"] = metric{late, "ms"}
	for c := 0; c < numClasses; c++ {
		m["loadgen."+classNames[c]+"_n"] = metric{float64(len(r.opTimes(p0, c))), "count"}
	}

	// Inclusive p50 service time per entry point, and self time as the
	// difference to the entry point below.
	var incl [numLayers][numClasses]float64
	var have [numLayers][numClasses]bool
	for l := layerHTTP; l < numLayers; l++ {
		for c := 0; c < numClasses; c++ {
			incl[l][c], have[l][c] = percentile(r.opTimes(r.passes[1+int(l)], c), 0.5)
			incl[l][c] *= 1000 // ms → µs
		}
	}
	prefix := [numLayers]string{"net", "server", "gridrank", "algo"}
	for c := 0; c < numClasses; c++ {
		cn := classNames[c]
		for l := layerHTTP; l < layerAlgo; l++ {
			if have[l][c] {
				m[prefix[l]+"."+cn+"_incl_us"] = metric{incl[l][c], "us"}
			}
			if have[l][c] && have[l+1][c] {
				m[prefix[l]+"."+cn+"_self_us"] = metric{incl[l][c] - incl[l+1][c], "us"}
			}
		}
		if have[layerAlgo][c] && c != classMut {
			m["algo."+cn+"_us"] = metric{incl[layerAlgo][c], "us"}
		}
	}
	if have[layerIndex][classMut] {
		m["gridrank.mut_us"] = metric{incl[layerIndex][classMut], "us"}
	}
	delete(m, "gridrank.mut_self_us") // mutations have no entry point below Index
	delete(m, "gridrank.mut_incl_us")
	if p0.mutRecs > 0 {
		m["gridrank.mut_derived_frac"] = metric{float64(p0.deriv) / float64(p0.mutRecs), "ratio"}
	}

	// server: bytes on the wire per request and response.
	var req, resp, nb float64
	for i := range p0.samples {
		if s := &p0.samples[i]; s.done && !s.failed {
			req, resp, nb = req+float64(s.reqBytes), resp+float64(s.respBytes), nb+1
		}
	}
	if nb > 0 {
		m["server.req_bytes"] = metric{req / nb, "bytes"}
		m["server.resp_bytes"] = metric{resp / nb, "bytes"}
	}

	// cache, from CacheStats deltas over the untraced window.
	cs := p0.cache
	muts := float64(len(r.opTimes(p0, classMut)))
	m["cache.evictions"] = metric{float64(cs.Evictions), "count"}
	m["cache.flushes"] = metric{float64(cs.Flushes), "count"}
	if cs.Hits+cs.Misses > 0 {
		m["cache.hit_rate"] = metric{float64(cs.Hits) / float64(cs.Hits+cs.Misses), "ratio"}
	}
	if muts > 0 {
		m["cache.invalidations_per_mut"] = metric{float64(cs.Invalidations) / muts, "count"}
	}
	if cs.Stores+cs.RejectedStores > 0 {
		m["cache.rejected_store_frac"] = metric{float64(cs.RejectedStores) / float64(cs.Stores+cs.RejectedStores), "ratio"}
	}

	// algo, from the cache-bypassing pass and the worker comparison.
	pa := r.passes[1+int(layerAlgo)]
	var q, bounds, mults, refined, filtered float64
	for i := range pa.samples {
		s := &pa.samples[i]
		if s.done && !s.failed && w.Ops[i].Kind.class() != classMut {
			q++
			bounds += float64(s.st.BoundSums)
			mults += float64(s.st.PairwiseMults)
			refined += float64(s.st.Refined)
			filtered += float64(s.st.Filtered)
		}
	}
	if q > 0 {
		m["algo.bound_sums_per_q"] = metric{bounds / q, "count"}
		m["algo.mults_per_q"] = metric{mults / q, "count"}
		m["algo.refined_per_q"] = metric{refined / q, "count"}
	}
	if filtered+refined > 0 {
		m["algo.filter_rate"] = metric{filtered / (filtered + refined), "ratio"}
	}
	var one, many time.Duration
	var w1 [numClasses][]float64
	for _, s := range pa.w1 {
		one, many = one+s.one, many+s.many
		w1[s.class] = append(w1[s.class], us(s.one))
	}
	if many > 0 {
		m["algo.par_speedup"] = metric{float64(one) / float64(many), "x"}
	}
	for c := 0; c < classMut; c++ {
		if len(w1[c]) > 0 {
			m["algo."+classNames[c]+"_w1_us"] = metric{median(w1[c]), "us"}
		}
	}

	// sub, from SubscriptionStats deltas over the untraced window.
	ss := p0.subs
	m["sub.events"] = metric{float64(ss.Events), "count"}
	m["sub.diff_passes"] = metric{float64(ss.DiffPasses), "count"}
	m["sub.lagged"] = metric{float64(ss.Lagged), "count"}
	if pairs := ss.Monitors * p0.epochs; pairs > 0 {
		m["sub.gated_skip_frac"] = metric{float64(ss.GatedSkips) / float64(pairs), "ratio"}
	}
	if ss.PrefsDiffFullCost > 0 {
		m["sub.prefs_eval_frac"] = metric{float64(ss.PrefsDiffEvaluated) / float64(ss.PrefsDiffFullCost), "ratio"}
	}

	// runtime, over the untraced window, per completed op.
	if _, _, done := counts(p0.samples, true); done > 0 {
		n := float64(done)
		m["runtime.allocs_per_op"] = metric{p0.rt.allocs / n, "count"}
		m["runtime.alloc_bytes_per_op"] = metric{p0.rt.allocBytes / n, "bytes"}
		m["runtime.cpu_ms_per_op"] = metric{ms(p0.rt.cpu) / n, "ms"}
	}
	m["runtime.gc_cycles"] = metric{p0.rt.gcCycles, "count"}
	if p0.rt.ticks > 0 {
		m["runtime.steal_frac"] = metric{p0.rt.steal / p0.rt.ticks, "ratio"}
	}

	// trace overhead: the traced HTTP pass against the untraced one, over
	// the ops both completed among those whose spans were kept.
	var base, traced time.Duration
	pt := r.passes[1]
	for i := range pt.samples[:min(len(pt.samples), spanOps)] {
		a, b := &p0.samples[i], &pt.samples[i]
		if a.done && !a.failed && b.done && !b.failed {
			base, traced = base+a.service(), traced+b.service()
		}
	}
	if base > 0 {
		m["trace.overhead_frac"] = metric{float64(traced)/float64(base) - 1, "ratio"}
	}
	return m
}

// opTimes returns the service times in ms of p's completed ops of class c.
func (r *run) opTimes(p *pass, c int) []float64 {
	var xs []float64
	for i := range p.samples {
		s := &p.samples[i]
		if s.done && !s.failed && r.w.Ops[i].Kind.class() == c {
			xs = append(xs, ms(s.service()))
		}
	}
	return xs
}

// layerTable renders the traced run's per-layer breakdown.
func (r *run) layerTable(m map[string]metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layer table: workload %s, seed %d (p50 service time per entry point, µs; self = entry point minus the one below)\n", r.w.Name, r.w.Seed)
	fmt.Fprintf(&b, "%-5s %10s %10s %10s %10s | %10s %10s %12s\n", "op", "http", "serve", "index", "algo", "net.self", "server.self", "gridrank.self")
	for c := 0; c < numClasses; c++ {
		cn := classNames[c]
		cell := func(name string) string {
			if v, ok := m[name]; ok {
				return fmt.Sprintf("%.1f", v.Value)
			}
			return "-"
		}
		algo := cell("algo." + cn + "_us")
		if c == classMut {
			algo = "-"
		}
		index := cell("gridrank." + cn + "_incl_us")
		if c == classMut {
			index = cell("gridrank.mut_us")
		}
		fmt.Fprintf(&b, "%-5s %10s %10s %10s %10s | %10s %10s %12s\n", cn,
			cell("net."+cn+"_incl_us"), cell("server."+cn+"_incl_us"), index, algo,
			cell("net."+cn+"_self_us"), cell("server."+cn+"_self_us"), cell("gridrank."+cn+"_self_us"))
	}
	if v, ok := m["trace.overhead_frac"]; ok {
		fmt.Fprintf(&b, "trace.overhead_frac %.4f\n", v.Value)
	}
	return b.String()
}
