package main

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gridrank"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g, %g, %g; want 2.75, 5.5, 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles(1, 2) = %g, %g, %g; want 0.75, 1.5, 2.25", q1, q2, q3)
	}
}

// stallStepper answers every op at once except op stallAt, which stalls.
func stallStepper(stallAt int, stall time.Duration) stepper {
	return stepper{
		prepare: func(int) prepared { return prepared{} },
		call: func(i int, _ prepared, _ *sample) func() error {
			if i == stallAt {
				time.Sleep(stall)
			}
			return nil
		},
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const rate, stall = 5000.0, 100 * time.Millisecond
	window := 400 * time.Millisecond
	late := func(samples []sample) float64 {
		v, ok := percentile(lateness(samples), 0.99)
		if !ok {
			t.Fatalf("too few samples (%d) for a p99", len(lateness(samples)))
		}
		return v
	}
	base, _, err := drive(2000, 1, rate, window, 0, stallStepper(-1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	stalled, _, err := drive(2000, 1, rate, window, 0, stallStepper(50, stall), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The op due right after the stalled one waited for it: its latency
	// counts from when it was due, not from when it was finally sent.
	if got := stalled[51].latency(); got < stall*8/10 {
		t.Errorf("op after the stall: latency %v, want at least %v", got, stall*8/10)
	}
	if got := stalled[51].service(); got > stall/2 {
		t.Errorf("op after the stall: service time %v, want it small", got)
	}
	if b, s := late(base), late(stalled); s < b+50 {
		t.Errorf("late p99 %.1fms with a %v stall vs %.1fms without; want the stall to show", s, stall, b)
	}
}

func TestClosedLoopHasNoLateness(t *testing.T) {
	samples, _, err := drive(100, 1, 0, time.Second, 0, stallStepper(10, 20*time.Millisecond), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if s := &samples[i]; s.done && s.latency() != s.service() {
			t.Fatalf("op %d: closed-loop latency %v differs from service time %v", i, s.latency(), s.service())
		}
	}
}

func TestSameSeedSameOpList(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 42, 1, -1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 42, 1, -1)
		c, _ := newWorkload(name, 43, 1, -1)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 42 generated two different op lists", name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 42 and 43 generated the same op list", name)
		}
		if !slices.EqualFunc(a.Products, c.Products, slices.Equal[[]float64]) {
			t.Errorf("%s: the catalog changed with the seed", name)
		}
	}
}

// smallCatalog draws a catalog small enough to check by brute force.
func smallCatalog(seed int64, np, nw int) (products, prefs [][]float64, queries [][]float64) {
	g, rng := newGen(seed), rand.New(rand.NewSource(seed))
	for range np {
		products = append(products, g.product(rng))
	}
	for range nw {
		prefs = append(prefs, g.pref(rng))
	}
	for range 40 {
		queries = append(queries, g.product(rng))
	}
	// Exact duplicates of catalog rows exercise the strict-less tie rule.
	queries = append(queries, slices.Clone(products[0]), slices.Clone(products[1]))
	return products, prefs, queries
}

func TestOracleAgreesWithIndex(t *testing.T) {
	products, prefs, queries := smallCatalog(5, 400, 120)
	ix, err := gridrank.New(products, prefs, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(products, prefs)
	ctx := context.Background()
	for qi, q := range queries {
		for _, k := range []int{1, 10, 60} {
			ids, err := ix.ReverseTopKCtx(ctx, q, k, gridrank.WithoutCache())
			if err != nil {
				t.Fatal(err)
			}
			if want := o.reverseTopK(q, k); !slices.Equal(ids, want) {
				t.Fatalf("query %d k=%d: index RTK %v, oracle %v", qi, k, ids, want)
			}
			ms, err := ix.ReverseKRanksCtx(ctx, q, k, gridrank.WithoutCache())
			if err != nil {
				t.Fatal(err)
			}
			got := make([]rankedPref, len(ms))
			for i, m := range ms {
				got[i] = rankedPref{m.WeightIndex, m.Rank}
			}
			if want := o.reverseKRanks(q, k); !slices.Equal(got, want) {
				t.Fatalf("query %d k=%d: index RKR %v, oracle %v", qi, k, got, want)
			}
		}
		// The sorted-score ranks equal a plain count.
		for wi, w := range prefs {
			n := 0
			for _, p := range products {
				if score(w, p) < score(w, q) {
					n++
				}
			}
			if r := o.rank(wi, q); r != n {
				t.Fatalf("query %d pref %d: oracle rank %d, counted %d", qi, wi, r, n)
			}
		}
	}
}

func TestCheckReadsRejectsCorruptedAnswer(t *testing.T) {
	products, prefs, queries := smallCatalog(6, 300, 80)
	w := &workload{Products: products, Prefs: prefs, Vecs: queries}
	o := newOracle(products, prefs)
	var samples []sample
	for i := range queries {
		kind := opRTK
		if i%2 == 1 {
			kind = opRKR
		}
		op := op{Kind: kind, K: 20, Vec: int32(i)}
		w.Ops = append(w.Ops, op)
		samples = append(samples, sample{started: true, done: true, hash: o.answer(kind, queries[i], 20)})
	}
	if err := checkReads(w, samples); err != nil {
		t.Fatalf("correct answers rejected: %v", err)
	}
	// Drop one preference from a reverse top-k answer and bump one rank
	// of a reverse k-ranks answer: both must be caught.
	var rtk, rkr int = -1, -1
	for i, op := range w.Ops {
		if op.Kind == opRTK && rtk < 0 && len(o.reverseTopK(queries[i], 20)) > 0 {
			rtk = i
		}
		if op.Kind == opRKR && rkr < 0 {
			rkr = i
		}
	}
	if rtk < 0 {
		t.Fatal("no reverse top-k query has a non-empty answer")
	}
	bad := slices.Clone(samples)
	ids := o.reverseTopK(queries[rtk], 20)
	bad[rtk].hash = hashTopK(ids[1:])
	if checkReads(w, bad) == nil {
		t.Error("a reverse top-k answer missing a preference passed the check")
	}
	bad = slices.Clone(samples)
	ms := slices.Clone(o.reverseKRanks(queries[rkr], 20))
	ms[len(ms)-1].Rank++
	bad[rkr].hash = hashKRanks(ms)
	if checkReads(w, bad) == nil {
		t.Error("a reverse k-ranks answer with a wrong rank passed the check")
	}
}

func TestReplayRenumbersAfterPreferenceDelete(t *testing.T) {
	members := map[int]bool{2: true, 5: true, 9: true}
	events := []gridrank.SubEvent{
		{Seq: 3, Type: gridrank.SubEnter, Pref: 7},
		// Epoch 4 deletes preference 5, a member: its Leave carries the
		// pre-delete id; 7 and 9 become 6 and 8; 3 enters post-delete.
		{Seq: 4, Type: gridrank.SubEnter, Pref: 3},
		{Seq: 4, Type: gridrank.SubLeave, Pref: 5},
		// Epoch 5 deletes preference 0, not a member: everything shifts
		// down again, so the original 9 is now 7.
		{Seq: 6, Type: gridrank.SubLeave, Pref: 7},
	}
	if err := replay(members, events, map[uint64]int{4: 5, 5: 0}); err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{1: true, 2: true, 5: true} // the original 2, 3 and 7
	if !sameSet(members, want) {
		t.Fatalf("replayed %v, want %v", members, want)
	}
	if err := replay(map[int]bool{}, []gridrank.SubEvent{{Seq: 1, Type: gridrank.SubLeave, Pref: 4}}, nil); err == nil {
		t.Fatal("a leave for a non-member replayed cleanly")
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	ms := metricSpec{Name: "x", Better: "lower", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	shift := func(d float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"faster", steady, shift(-10, steady), "improved"},
		{"slower", steady, shift(20, steady), "regressed"},
		{"same", steady, shift(1, steady), "unchanged"},
		{"noisy", noisy, reversed(noisy), "unresolved"},
	} {
		if got, _, _ := verdict(ms, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func reversed(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.Reverse(out)
	return out
}

func TestOracleFollowsMutations(t *testing.T) {
	products, prefs, queries := smallCatalog(7, 200, 60)
	o := newOracle(products, prefs)
	products, prefs = slices.Clone(products), slices.Clone(prefs)
	o.insertProduct(queries[0])
	products = append(products, queries[0])
	o.deleteProduct(products[17])
	products = slices.Delete(products, 17, 18)
	o.insertPref(prefs[3], products)
	prefs = append(prefs, prefs[3])
	o.deletePref(5)
	prefs = slices.Delete(prefs, 5, 6)
	fresh := newOracle(products, prefs)
	for _, q := range queries {
		for _, kind := range []opKind{opRTK, opRKR} {
			if o.answer(kind, q, 10) != fresh.answer(kind, q, 10) {
				t.Fatalf("after mutations the oracle answers differently from one built afresh")
			}
		}
	}
}
