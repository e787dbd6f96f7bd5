package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridrank"
	"gridrank/internal/flight"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up serves the untraced pass.
const setupReps = 15

// pass is what one pass over the op list measured.
type pass struct {
	layer   layer
	samples []sample
	elapsed time.Duration
	heap    float64 // live heap after warm-up and a forced GC, bytes

	// Counter deltas over the timed window.
	cache          gridrank.CacheStats
	subs           gridrank.SubStats
	rt             rtCounters
	epochs         int64
	mutRecs, deriv int // flight mutation records in the window, and how many derived their epoch

	w1 []w1Sample // algo pass: the same queries at one worker and at GOMAXPROCS
}

// w1Sample times one distinct read twice with the cache bypassed.
type w1Sample struct {
	class     int
	one, many time.Duration
}

// run is one benchmark run: the set-ups, the untraced HTTP pass and, when
// traced, the four traced passes.
type run struct {
	w        *workload
	window   time.Duration
	setups   []float64
	baseHeap float64 // live heap bytes before the first set-up: the benchmark's own inputs
	passes   []*pass // [0] untraced HTTP; [1..4] traced HTTP, ServeHTTP, Index, Index without cache
	spans    []*spanLog
}

// execute performs a run of w. The catalog file lives in workDir for
// the run's duration.
func execute(w *workload, seconds int, traced bool) (*run, error) {
	r := &run{w: w, window: time.Duration(seconds) * time.Second}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "catalog.gri")
	if err := writeCatalog(w, path); err != nil {
		return nil, err
	}

	runtime.GC()
	runtime.GC()
	r.baseHeap = liveHeap()
	var t *target
	for range setupReps {
		if t != nil {
			t.close()
			runtime.GC()
		}
		var d time.Duration
		if t, d, err = openTarget(path, w.Clients); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, d.Seconds())
	}
	p, err := r.pass(t, layerHTTP, len(w.Ops), nil)
	t.close()
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	r.passes = append(r.passes, p)
	if !traced {
		return r, nil
	}

	// The traced passes replay the ops the untraced pass sent, each from
	// a fresh set-up and each entering one layer lower.
	n := 0
	for i := range p.samples {
		if p.samples[i].started {
			n = i + 1
		}
	}
	for l := layerHTTP; l < numLayers; l++ {
		if t, _, err = openTarget(path, w.Clients); err != nil {
			return nil, err
		}
		log := &spanLog{pass: layerNames[l], kinds: func(i int) string { return classNames[w.Ops[i].Kind.class()] }}
		p, err := r.pass(t, l, n, log)
		if err == nil && l == layerAlgo {
			p.w1 = timeWorkers(t.ix, w, n, r.window/2)
		}
		t.close()
		if err != nil {
			return nil, fmt.Errorf("traced %s pass: %w", layerNames[l], err)
		}
		r.passes = append(r.passes, p)
		r.spans = append(r.spans, log)
	}
	return r, nil
}

// writeCatalog builds the workload's index and saves it as a GRI3 file,
// off the clock.
func writeCatalog(w *workload, path string) error {
	ix, err := gridrank.New(w.Products, w.Prefs, nil)
	if err != nil {
		return fmt.Errorf("building catalog: %w", err)
	}
	if err := ix.Save(path); err != nil {
		return fmt.Errorf("saving catalog: %w", err)
	}
	return nil
}

// pass warms t up through layer l, then runs the first n ops through l
// for at most the run window (half of it when traced), and checks every
// answer afterwards.
func (r *run) pass(t *target, l layer, n int, spans *spanLog) (*pass, error) {
	w, ctx := r.w, context.Background()
	if l != layerAlgo { // the cache-bypassing layer has nothing to warm
		for _, o := range w.Warm {
			var s sample
			if finish := t.exec(ctx, l, w, o, t.prepare(l, w, o), &s); finish != nil {
				if err := finish(); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	var d *drainer
	if len(w.Monitors) > 0 {
		var err error
		if d, err = subscribe(t.ix, w); err != nil {
			return nil, err
		}
	}
	runtime.GC() // twice: the second also empties the sync.Pools' victim caches
	runtime.GC()
	p := &pass{layer: l, heap: liveHeap()}
	cs0, _ := t.ix.CacheStats()
	ss0, rt0, ep0 := t.ix.SubscriptionStats(), readRuntime(), t.ix.Epoch()

	st := stepper{
		prepare: func(i int) prepared { return t.prepare(l, w, w.Ops[i]) },
		call: func(i int, pr prepared, s *sample) func() error {
			return t.exec(ctx, l, w, w.Ops[i], pr, s)
		},
	}
	// The untraced pass gives a late open loop time to send what fell
	// due; the traced passes are capped diagnostics and stop on time.
	window, grace := r.window, r.window/4
	if spans != nil {
		window, grace = r.window/2, 0
	}
	var err error
	p.samples, p.elapsed, err = drive(n, w.Clients, w.Rate, window, grace, st, spans)
	if err != nil { // counted in fail_frac; the first error says why
		fmt.Fprintf(os.Stderr, "gridbench: %s pass: op failed: %v\n", layerNames[l], err)
	}

	p.rt = readRuntime().sub(rt0)
	cs1, _ := t.ix.CacheStats()
	p.cache = cacheDelta(cs1, cs0)
	p.subs = subDelta(t.ix.SubscriptionStats(), ss0)
	p.epochs = int64(t.ix.Epoch() - ep0)
	for _, rec := range t.ix.FlightRecords() {
		if rec.Class == flight.ClassMutation && rec.Epoch > ep0 {
			p.mutRecs++
			if rec.Flags&flight.FlagDerived != 0 {
				p.deriv++
			}
		}
	}
	if d != nil {
		d.close()
		if err := checkChurn(t, w, d, p.samples, ep0, newOracle(w.Products, w.Prefs)); err != nil {
			return nil, err
		}
	} else if err := checkReads(w, p.samples); err != nil {
		return nil, err
	}
	return p, nil
}

// timeWorkers times up to 16 distinct reads per kind from the first n
// ops with the cache bypassed, once at one worker and once at
// GOMAXPROCS, within budget.
func timeWorkers(ix *gridrank.Index, w *workload, n int, budget time.Duration) []w1Sample {
	ctx, start := context.Background(), time.Now()
	seen := map[int32]bool{}
	var count [numClasses]int
	var out []w1Sample
	for _, o := range w.Ops[:n] {
		c := o.Kind.class()
		if c == classMut || seen[o.Vec] || count[c] >= 16 {
			continue
		}
		if time.Since(start) > budget {
			break
		}
		seen[o.Vec] = true
		count[c]++
		var ds [2]time.Duration
		for j, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t0 := time.Now()
			opts := []gridrank.QueryOption{gridrank.WithoutCache(), gridrank.WithWorkers(workers)}
			if c == classRTK {
				_, _ = ix.ReverseTopKCtx(ctx, w.Vecs[o.Vec], int(o.K), opts...) // answers were checked in the pass
			} else {
				_, _ = ix.ReverseKRanksCtx(ctx, w.Vecs[o.Vec], int(o.K), opts...)
			}
			ds[j] = time.Since(t0)
		}
		out = append(out, w1Sample{class: c, one: ds[0], many: ds[1]})
	}
	return out
}

// writeSpans dumps the traced passes' spans under the work directory
// and returns the file's path.
func (r *run) writeSpans() (string, error) {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.w.Name, r.w.Seed))
	windows := make([]time.Duration, len(r.spans))
	for i := range r.spans {
		windows[i] = r.passes[i+1].elapsed
	}
	return path, writeSpans(path, r.spans, windows)
}

// rtCounters are process-wide runtime counters, plus the machine's CPU
// time in ticks: all of it, and the part the hypervisor gave to other
// guests (steal).
type rtCounters struct {
	allocs, allocBytes, gcCycles float64
	cpu                          time.Duration
	ticks, steal                 float64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	ticks, steal := cpuTicks()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtCounters{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ticks:      ticks,
		steal:      steal,
	}
}

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat; both are 0 where it does not exist.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.cpu - b.cpu,
		a.ticks - b.ticks, a.steal - b.steal}
}

// liveHeap returns the bytes held by live heap objects as of the last
// GC.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func cacheDelta(a, b gridrank.CacheStats) gridrank.CacheStats {
	return gridrank.CacheStats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		Stores: a.Stores - b.Stores, RejectedStores: a.RejectedStores - b.RejectedStores,
		Invalidations: a.Invalidations - b.Invalidations, Flushes: a.Flushes - b.Flushes,
		Evictions: a.Evictions - b.Evictions, Expirations: a.Expirations - b.Expirations,
	}
}

func subDelta(a, b gridrank.SubStats) gridrank.SubStats {
	return gridrank.SubStats{
		Monitors: a.Monitors, Events: a.Events - b.Events, Lagged: a.Lagged - b.Lagged,
		DiffPasses: a.DiffPasses - b.DiffPasses, FullPasses: a.FullPasses - b.FullPasses,
		GatedSkips:         a.GatedSkips - b.GatedSkips,
		PrefsDiffEvaluated: a.PrefsDiffEvaluated - b.PrefsDiffEvaluated,
		PrefsDiffFullCost:  a.PrefsDiffFullCost - b.PrefsDiffFullCost,
	}
}
