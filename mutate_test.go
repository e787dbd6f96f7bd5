package gridrank

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randProduct samples a product vector; scale stretches it beyond the
// typical [0, 1) data range to exercise the rangeP-growth rebuild path.
func randProduct(rng *rand.Rand, d int, scale float64) Vector {
	p := make(Vector, d)
	for j := range p {
		p[j] = rng.Float64() * scale
	}
	return p
}

// randPreference samples a simplex weight vector (non-negative, sums
// to 1), occasionally skewed so one component dominates and the
// rangeW-growth rebuild path triggers.
func randPreference(rng *rand.Rand, d int) Vector {
	w := make(Vector, d)
	sum := 0.0
	for j := range w {
		w[j] = rng.Float64()
		if rng.Intn(8) == 0 {
			w[j] += 3 // skew: this component will dominate
		}
		sum += w[j]
	}
	for j := range w {
		w[j] /= sum
	}
	return w
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkMutatedEquivalence compares the mutated index against a fresh
// build over the same data: identical answers for both query types at
// several worker counts, ranks cross-validated against the exact scan,
// and identical persisted bytes.
func checkMutatedEquivalence(t *testing.T, ix *Index, ps, ws []Vector, n int, rng *rand.Rand) {
	t.Helper()
	fresh, err := New(ps, ws, &Options{GridPartitions: n})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumProducts() != len(ps) || ix.NumPreferences() != len(ws) {
		t.Fatalf("mutated index holds %d/%d elements, want %d/%d",
			ix.NumProducts(), ix.NumPreferences(), len(ps), len(ws))
	}
	d := ix.Dim()
	queries := []Vector{ps[rng.Intn(len(ps))], randProduct(rng, d, 1.2)}
	ctx := context.Background()
	for _, q := range queries {
		for _, workers := range []int{1, 2, 4, 8} {
			wantRTK, err := fresh.ReverseTopKCtx(ctx, q, 4, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			gotRTK, err := ix.ReverseTopKCtx(ctx, q, 4, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(gotRTK, wantRTK) {
				t.Fatalf("workers=%d: mutated RTK %v, fresh %v", workers, gotRTK, wantRTK)
			}
			wantRKR, err := fresh.ReverseKRanksCtx(ctx, q, 4, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			gotRKR, err := ix.ReverseKRanksCtx(ctx, q, 4, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !sameMatches(gotRKR, wantRKR) {
				t.Fatalf("workers=%d: mutated RKR %v, fresh %v", workers, gotRKR, wantRKR)
			}
		}
		// Brute force: every reported rank must equal the exact scan's
		// count of strictly better products.
		matches, err := ix.ReverseKRanksCtx(ctx, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			brute := 0
			w := ws[m.WeightIndex]
			var fq float64
			for j := range q {
				fq += w[j] * q[j]
			}
			for _, p := range ps {
				var fp float64
				for j := range p {
					fp += w[j] * p[j]
				}
				if fp < fq {
					brute++
				}
			}
			if m.Rank != brute {
				t.Fatalf("rank(w%d, q) = %d, brute force %d", m.WeightIndex, m.Rank, brute)
			}
		}
	}
	var mb, fb bytes.Buffer
	if _, err := ix.WriteTo(&mb); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.WriteTo(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb.Bytes(), fb.Bytes()) {
		t.Fatalf("mutated index persists %d bytes differing from a fresh build's %d", mb.Len(), fb.Len())
	}
}

// TestMutationEquivalence drives random insert/delete sequences over
// many random datasets and checks, at several points per sequence, that
// the mutated index is indistinguishable from a fresh build over the
// same data: answers (all worker counts), exact-scan ranks, and Save
// bytes.
func TestMutationEquivalence(t *testing.T) {
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			d := 2 + rng.Intn(3)
			n := 8
			dist := Uniform
			if trial%2 == 1 {
				dist = Clustered
			}
			P, err := GenerateProducts(int64(trial), dist, 15+rng.Intn(40), d)
			if err != nil {
				t.Fatal(err)
			}
			W, err := GeneratePreferences(int64(trial+1000), Uniform, 10+rng.Intn(25), d)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := New(P, W, &Options{GridPartitions: n})
			if err != nil {
				t.Fatal(err)
			}
			ps := append([]Vector{}, P...)
			ws := append([]Vector{}, W...)
			wantEpoch := uint64(0)
			for step := 0; step < 12; step++ {
				switch op := rng.Intn(6); {
				case op == 0 && len(ps) > 2:
					i := rng.Intn(len(ps))
					if err := ix.DeleteProduct(i); err != nil {
						t.Fatal(err)
					}
					ps = append(ps[:i:i], ps[i+1:]...)
				case op == 1 && len(ws) > 2:
					i := rng.Intn(len(ws))
					if err := ix.DeletePreference(i); err != nil {
						t.Fatal(err)
					}
					ws = append(ws[:i:i], ws[i+1:]...)
				case op == 2:
					w := randPreference(rng, d)
					id, err := ix.InsertPreference(w)
					if err != nil {
						t.Fatal(err)
					}
					if id != len(ws) {
						t.Fatalf("InsertPreference id %d, want %d", id, len(ws))
					}
					ws = append(ws, w)
				case op == 3 && len(ps) > 4: // batch delete
					ids := []int{rng.Intn(len(ps) / 2), len(ps)/2 + rng.Intn(len(ps)/2)}
					if err := ix.DeleteProducts(ids); err != nil {
						t.Fatal(err)
					}
					ps = append(ps[:ids[0]:ids[0]], ps[ids[0]+1:]...)
					ps = append(ps[:ids[1]-1:ids[1]-1], ps[ids[1]:]...)
				case op == 4: // batch insert
					batch := []Vector{randProduct(rng, d, 1), randProduct(rng, d, 1.5)}
					first, err := ix.InsertProducts(batch)
					if err != nil {
						t.Fatal(err)
					}
					if first != len(ps) {
						t.Fatalf("InsertProducts first id %d, want %d", first, len(ps))
					}
					ps = append(ps, batch...)
				default:
					// Scale beyond 1 sometimes exceeds the current rangeP and
					// exercises the range-growth rebuild.
					p := randProduct(rng, d, []float64{0.9, 1.0, 1.4}[rng.Intn(3)])
					id, err := ix.InsertProduct(p)
					if err != nil {
						t.Fatal(err)
					}
					if id != len(ps) {
						t.Fatalf("InsertProduct id %d, want %d", id, len(ps))
					}
					ps = append(ps, p)
				}
				wantEpoch++
				if got := ix.Epoch(); got != wantEpoch {
					t.Fatalf("Epoch() = %d after %d mutations", got, wantEpoch)
				}
				if step == 5 {
					checkMutatedEquivalence(t, ix, ps, ws, n, rng)
				}
			}
			checkMutatedEquivalence(t, ix, ps, ws, n, rng)
		})
	}
}

// TestMutationValidation covers every rejection path; a failed mutation
// must leave the epoch untouched.
func TestMutationValidation(t *testing.T) {
	ix := mustIndex(t, nil)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"product wrong dim", func() error { _, err := ix.InsertProduct(Vector{1}); return err }, ErrDimensionMismatch},
		{"product NaN", func() error { _, err := ix.InsertProduct(Vector{math.NaN(), 0}); return err }, nil},
		{"product negative", func() error { _, err := ix.InsertProduct(Vector{-1, 0}); return err }, nil},
		{"preference wrong dim", func() error { _, err := ix.InsertPreference(Vector{1}); return err }, ErrDimensionMismatch},
		{"preference bad sum", func() error { _, err := ix.InsertPreference(Vector{0.5, 0.6}); return err }, nil},
		{"preference negative", func() error { _, err := ix.InsertPreference(Vector{-0.5, 1.5}); return err }, nil},
		{"delete product out of range", func() error { return ix.DeleteProduct(len(phones)) }, ErrOutOfRange},
		{"delete product negative", func() error { return ix.DeleteProduct(-1) }, ErrOutOfRange},
		{"delete preference out of range", func() error { return ix.DeletePreference(99) }, ErrOutOfRange},
		{"empty product batch", func() error { _, err := ix.InsertProducts(nil); return err }, nil},
		{"empty preference batch", func() error { _, err := ix.InsertPreferences(nil); return err }, nil},
		{"empty delete batch", func() error { return ix.DeleteProducts(nil) }, nil},
		{"duplicate batch ids", func() error { return ix.DeleteProducts([]int{1, 1}) }, nil},
		{"batch id out of range", func() error { return ix.DeletePreferences([]int{0, 7}) }, ErrOutOfRange},
		{"batch deletes all", func() error { return ix.DeleteProducts([]int{0, 1, 2, 3, 4}) }, ErrLastElement},
		{"cancelled insert", func() error { _, err := ix.InsertProductCtx(cancelled, Vector{0.1, 0.1}); return err }, context.Canceled},
		{"cancelled delete", func() error { return ix.DeletePreferenceCtx(cancelled, 0) }, context.Canceled},
		{"bad element in batch", func() error { _, err := ix.InsertProducts([]Vector{{0.1, 0.1}, {math.Inf(1), 0}}); return err }, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil {
				t.Fatal("mutation accepted")
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
	if ix.Epoch() != 0 || ix.NumProducts() != len(phones) || ix.NumPreferences() != len(users) {
		t.Fatal("failed mutations changed the index")
	}

	// The last element of either set is not deletable.
	small, err := New([]Vector{{0.5, 0.5}}, []Vector{{0.4, 0.6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.DeleteProduct(0); !errors.Is(err, ErrLastElement) {
		t.Fatalf("deleting the last product: %v", err)
	}
	if err := small.DeletePreference(0); !errors.Is(err, ErrLastElement) {
		t.Fatalf("deleting the last preference: %v", err)
	}
}

// TestConcurrentMutationsAndQueries runs mutators and queriers together
// (meaningful under -race): queries must always succeed against a
// consistent snapshot while epochs roll forward.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	P, err := GenerateProducts(31, Uniform, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(32, Uniform, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	const mutations = 120
	ctx := context.Background()
	stop := make(chan struct{})
	errc := make(chan error, 16)
	var qwg, mwg sync.WaitGroup

	// Queriers: random valid queries, plus snapshot reads. Answers only
	// need to be error-free; consistency with one epoch is what the
	// equivalence test proves, here the race detector is the oracle.
	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func(seed int64) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randProduct(rng, 4, 1)
				if _, err := ix.ReverseTopKCtx(ctx, q, 5, WithWorkers(1+rng.Intn(4))); err != nil {
					errc <- err
					return
				}
				if _, err := ix.ReverseKRanksCtx(ctx, q, 5); err != nil {
					errc <- err
					return
				}
				if _, err := ix.Product(0); err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				if _, err := ix.WriteTo(&buf); err != nil {
					errc <- err
					return
				}
			}
		}(int64(100 + g))
	}
	// One product mutator and one preference mutator: each is the sole
	// writer for its kind, so its size bookkeeping stays accurate.
	mwg.Add(2)
	go func() {
		defer mwg.Done()
		rng := rand.New(rand.NewSource(7))
		size := ix.NumProducts()
		for op := 0; op < mutations; op++ {
			if size > 250 && rng.Intn(2) == 0 {
				if err := ix.DeleteProduct(rng.Intn(size)); err != nil {
					errc <- err
					return
				}
				size--
			} else {
				if _, err := ix.InsertProduct(randProduct(rng, 4, 1)); err != nil {
					errc <- err
					return
				}
				size++
			}
		}
	}()
	go func() {
		defer mwg.Done()
		rng := rand.New(rand.NewSource(8))
		size := ix.NumPreferences()
		for op := 0; op < mutations; op++ {
			if size > 100 && rng.Intn(2) == 0 {
				if err := ix.DeletePreference(rng.Intn(size)); err != nil {
					errc <- err
					return
				}
				size--
			} else {
				if _, err := ix.InsertPreference(randPreference(rng, 4)); err != nil {
					errc <- err
					return
				}
				size++
			}
		}
	}()

	mwg.Wait()
	close(stop)
	qwg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := ix.Epoch(); got != 2*mutations {
		t.Fatalf("Epoch() = %d after %d mutations", got, 2*mutations)
	}
}

// TestBatchRejectionIsAllOrNothing pins the batch validation seam: a
// batch with duplicate or partially-invalid ids is rejected before any
// epoch work — no partial delete, no epoch bump, no cache flush, no
// subscription events. Ids are always interpreted against the pre-batch
// epoch, never against a half-applied one.
func TestBatchRejectionIsAllOrNothing(t *testing.T) {
	P, err := GenerateProducts(91, Uniform, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(92, Uniform, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Populate one cache entry and one subscription: both must survive
	// every rejected batch untouched.
	q := P[0]
	if _, err := ix.ReverseTopKCtx(ctx, q, 3); err != nil {
		t.Fatal(err)
	}
	sub, err := ix.Subscribe(q, 3, SubReverseTopK, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	rejected := []struct {
		name string
		call func() error
		want error
	}{
		{"duplicate preference ids", func() error { return ix.DeletePreferences([]int{3, 3, 5}) }, nil},
		{"mixed valid and unknown preference ids", func() error { return ix.DeletePreferences([]int{2, 99}) }, ErrOutOfRange},
		{"duplicate product ids", func() error { return ix.DeleteProducts([]int{1, 1, 4}) }, nil},
		{"mixed valid and unknown product ids", func() error { return ix.DeleteProducts([]int{0, -1}) }, ErrOutOfRange},
		{"invalid element mid-batch", func() error { _, err := ix.InsertProducts([]Vector{{0.1, 0.1}, {math.NaN(), 0}}); return err }, nil},
	}
	for _, c := range rejected {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil {
				t.Fatal("invalid batch accepted")
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if ix.Epoch() != 0 {
				t.Fatalf("rejected batch bumped the epoch to %d", ix.Epoch())
			}
			if ix.NumProducts() != len(P) || ix.NumPreferences() != len(W) {
				t.Fatal("rejected batch changed the element counts")
			}
			cs, _ := ix.CacheStats()
			if cs.Flushes != 0 || cs.Entries != 1 {
				t.Fatalf("rejected batch touched the cache: %+v", cs)
			}
			select {
			case ev := <-sub.Events():
				t.Fatalf("rejected batch emitted a subscription event: %+v", ev)
			default:
			}
		})
	}

	// The seams still work after the rejections: a valid batch applies,
	// flushes the cache, and its ids resolve against the pre-batch epoch
	// — [0, 5] removes the original rows 0 and 5, not renumbered ones.
	want := []Vector{P[1], P[2], P[3], P[4], P[6], P[7]}
	if err := ix.DeleteProducts([]int{0, 5}); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() != 1 || ix.NumProducts() != len(want) {
		t.Fatalf("epoch %d, %d products after batch delete", ix.Epoch(), ix.NumProducts())
	}
	for i, w := range want {
		got, err := ix.Product(i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("product %d = %v, want %v (ids must bind pre-batch)", i, got, w)
			}
		}
	}
	cs, _ := ix.CacheStats()
	if cs.Flushes != 1 {
		t.Fatalf("valid batch did not flush the cache: %+v", cs)
	}
}

// TestBatchOfOneMatchesSingle drives twin indexes — answer cache and
// live monitors of both kinds on each — through the same random history,
// one through the batch methods with one element per call and the other
// through the single-element methods. A batch of one must take the
// incremental path: the same ids, epochs, answers, Save bytes and
// subscription event streams, the same cache and subscription counters,
// no cache flush and no full subscription recompute.
func TestBatchOfOneMatchesSingle(t *testing.T) {
	const d = 4
	P, err := GenerateProducts(81, Clustered, 150, d)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(82, Uniform, 90, d)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{GridPartitions: 12, CacheSize: 64}
	batch, err := New(P, W, opts)
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(P, W, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := []Vector{P[3], P[17], P[40], P[99]}
	var bSubs, sSubs []*Subscription
	for i, q := range pool {
		kind, k := SubReverseTopK, 10
		if i%2 == 1 {
			kind, k = SubReverseKRanks, 5
		}
		for _, side := range []struct {
			ix   *Index
			subs *[]*Subscription
		}{{batch, &bSubs}, {single, &sSubs}} {
			s, err := side.ix.Subscribe(q, k, kind, 1024)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			*side.subs = append(*side.subs, s)
		}
	}
	drain := func(s *Subscription) []SubEvent {
		var out []SubEvent
		for {
			select {
			case ev := <-s.Events():
				out = append(out, ev)
			default:
				return out
			}
		}
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(83))
	for step := 0; step < 40; step++ {
		var name string
		var idB, idS int
		var errB, errS error
		switch op := rng.Intn(4); op {
		case 0:
			// Scale beyond 1 sometimes grows the point range and forces
			// the single path's own rebuild.
			p := randProduct(rng, d, []float64{0.9, 1.0, 1.4}[rng.Intn(3)])
			name = "insert product"
			idB, errB = batch.InsertProductsCtx(ctx, []Vector{p})
			idS, errS = single.InsertProductCtx(ctx, p)
		case 1:
			i := rng.Intn(single.NumProducts())
			name = "delete product"
			errB = batch.DeleteProductsCtx(ctx, []int{i})
			errS = single.DeleteProductCtx(ctx, i)
		case 2:
			w := randPreference(rng, d)
			name = "insert preference"
			idB, errB = batch.InsertPreferencesCtx(ctx, []Vector{w})
			idS, errS = single.InsertPreferenceCtx(ctx, w)
		case 3:
			i := rng.Intn(single.NumPreferences())
			name = "delete preference"
			errB = batch.DeletePreferencesCtx(ctx, []int{i})
			errS = single.DeletePreferenceCtx(ctx, i)
		}
		if errB != nil || errS != nil {
			t.Fatalf("step %d %s: batch err %v, single err %v", step, name, errB, errS)
		}
		if idB != idS || batch.Epoch() != single.Epoch() {
			t.Fatalf("step %d %s: batch id %d epoch %d, single id %d epoch %d",
				step, name, idB, batch.Epoch(), idS, single.Epoch())
		}
		for _, q := range pool {
			tb, err := batch.ReverseTopKCtx(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := single.ReverseTopKCtx(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			kb, err := batch.ReverseKRanksCtx(ctx, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			ks, err := single.ReverseKRanksCtx(ctx, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(tb, ts) || !sameMatches(kb, ks) {
				t.Fatalf("step %d %s: answers diverge for q=%v", step, name, q)
			}
		}
		for i := range bSubs {
			eb, es := drain(bSubs[i]), drain(sSubs[i])
			if len(eb) != len(es) {
				t.Fatalf("step %d %s: monitor %d emitted %v (batch) vs %v (single)", step, name, i, eb, es)
			}
			for j := range eb {
				if eb[j] != es[j] {
					t.Fatalf("step %d %s: monitor %d emitted %v (batch) vs %v (single)", step, name, i, eb, es)
				}
			}
		}
	}

	var bb, sb bytes.Buffer
	if _, err := batch.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if _, err := single.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bb.Bytes(), sb.Bytes()) {
		t.Fatal("Save bytes differ between the batch-of-one and single paths")
	}
	cacheB, _ := batch.CacheStats()
	cacheS, _ := single.CacheStats()
	if cacheB != cacheS || cacheB.Flushes != 0 {
		t.Fatalf("cache stats: batch %+v, single %+v (want equal, 0 flushes)", cacheB, cacheS)
	}
	if cacheB.Hits == 0 || cacheB.Invalidations == 0 {
		t.Fatalf("history never exercised the cache: %+v", cacheB)
	}
	subB, subS := batch.SubscriptionStats(), single.SubscriptionStats()
	if subB != subS || subB.FullPasses != 0 {
		t.Fatalf("subscription stats: batch %+v, single %+v (want equal, 0 full passes)", subB, subS)
	}
	if subB.DiffPasses == 0 || subB.Events == 0 {
		t.Fatalf("history never exercised the monitors: %+v", subB)
	}
}

// TestMutationWrappersMatchCtxAPI mirrors the deprecated-query
// equivalence harness for the mutation surface: every context-free
// mutator is a thin wrapper over its Ctx form, so driving two copies of
// the same index through both forms must leave byte-identical indexes.
func TestMutationWrappersMatchCtxAPI(t *testing.T) {
	a, _ := testIndexWithOpts(t, nil)
	b, _ := testIndexWithOpts(t, nil)
	bg := context.Background()

	step := func(name string, plain, ctx error) {
		t.Helper()
		if plain != nil || ctx != nil {
			t.Fatalf("%s: plain err %v, ctx err %v", name, plain, ctx)
		}
	}
	p := Vector{0.9, 0.8, 0.7, 0.6, 0.5}
	w := Vector{0.1, 0.2, 0.3, 0.2, 0.2}
	_, errA := a.InsertProduct(p)
	_, errB := b.InsertProductCtx(bg, p)
	step("InsertProduct", errA, errB)
	step("DeleteProduct", a.DeleteProduct(2), b.DeleteProductCtx(bg, 2))
	_, errA = a.InsertPreference(w)
	_, errB = b.InsertPreferenceCtx(bg, w)
	step("InsertPreference", errA, errB)
	step("DeletePreference", a.DeletePreference(5), b.DeletePreferenceCtx(bg, 5))
	_, errA = a.InsertProducts([]Vector{p, p})
	_, errB = b.InsertProductsCtx(bg, []Vector{p, p})
	step("InsertProducts", errA, errB)
	step("DeleteProducts", a.DeleteProducts([]int{1, 3}), b.DeleteProductsCtx(bg, []int{1, 3}))
	_, errA = a.InsertPreferences([]Vector{w})
	_, errB = b.InsertPreferencesCtx(bg, []Vector{w})
	step("InsertPreferences", errA, errB)
	step("DeletePreferences", a.DeletePreferences([]int{0}), b.DeletePreferencesCtx(bg, []int{0}))

	var bufA, bufB bytes.Buffer
	if _, err := a.WriteTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("plain and Ctx mutation sequences serialized different indexes")
	}
	// A cancelled context aborts before any epoch is built.
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	epoch := b.Epoch()
	if _, err := b.InsertProductCtx(cancelled, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled InsertProductCtx: %v", err)
	}
	if b.Epoch() != epoch {
		t.Fatal("cancelled mutation advanced the epoch")
	}
}
