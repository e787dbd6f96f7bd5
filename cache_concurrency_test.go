package gridrank

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The concurrency side of the cache proof: N queriers race M mutators on
// a cache-enabled index (run under -race in CI) and every answer's
// served epoch must be at least the epoch of the last mutation that
// could have affected that query — i.e. the cache never serves a stale
// entry. Staleness is decided with the same dominance predicate the
// cache uses (DESIGN.md §12): a product row affects a query unless it is
// componentwise >= the query; preference mutations affect every query.

// affectsQuery mirrors internal/cache.rowAffects for the test's oracle.
func affectsQuery(row, q Vector) bool {
	if len(row) != len(q) {
		return true
	}
	for j := range row {
		if !(row[j] >= q[j]) {
			return true
		}
	}
	return false
}

// mutRecord is one entry of the shared mutation log: the epoch the
// mutation installed, and the product row it touched (nil for
// preference mutations, which affect every query).
type mutRecord struct {
	seq uint64
	row Vector // nil: affects all queries
}

// TestCacheConcurrencyNoStaleEpoch races 4 queriers against 2 mutators
// on a cache-enabled index. Each querier computes, from the shared
// mutation log, the epoch of the last mutation affecting its query
// before it runs, then asserts the served epoch (WithServedEpoch) is at
// least that — catching any window where an invalidation sweep lags the
// epoch install or a racing store resurrects a pre-mutation answer. The
// test is goroutine-leak-checked.
//
// The mutators run in rounds: after each round both wait at a barrier
// until the queriers have completed quietQueries more queries. Without
// it the mutators can finish every mutation before the queriers ask the
// same question twice, and the cache-hit assertion would depend on the
// schedule rather than on the cache.
func TestCacheConcurrencyNoStaleEpoch(t *testing.T) {
	before := runtime.NumGoroutine()

	P, err := GenerateProducts(71, Clustered, 250, 3)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(72, Uniform, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{GridPartitions: 12, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	// The query pool is fixed and shared, so queriers repeatedly ask the
	// same questions and the cache serves real hits under mutation.
	rng := rand.New(rand.NewSource(73))
	pool := make([]Vector, 6)
	for i := range pool {
		pool[i] = randProduct(rng, 3, 1.0)
	}

	// logMu serializes mutate -> Epoch() -> append, so each log record
	// carries the exact epoch its mutation installed, and queriers read
	// a prefix-consistent log.
	var logMu sync.Mutex
	var mutLog []mutRecord

	const (
		rounds         = 10
		roundMutations = 8 // per mutator, so each mutator makes 80
		quietQueries   = 32
	)
	ctx := context.Background()
	stop := make(chan struct{})
	errc := make(chan error, 16)
	var qwg, mwg sync.WaitGroup
	var completed atomic.Int64 // queries the queriers have checked

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
				q := pool[rng.Intn(len(pool))]
				// Floor first, query second: any mutation that lands in
				// between only raises the served epoch further above the
				// floor, so the assertion stays one-sided and sound.
				logMu.Lock()
				var floor uint64
				for _, m := range mutLog {
					if m.row == nil || affectsQuery(m.row, q) {
						floor = m.seq
					}
				}
				logMu.Unlock()
				var served uint64
				var err error
				if rng.Intn(2) == 0 {
					_, err = ix.ReverseTopKCtx(ctx, q, 5, WithServedEpoch(&served))
				} else {
					_, err = ix.ReverseKRanksCtx(ctx, q, 5, WithServedEpoch(&served))
				}
				if err != nil {
					errc <- err
					return
				}
				if served < floor {
					errc <- fmt.Errorf("stale cache serve: answer epoch %d < last affecting mutation epoch %d", served, floor)
					return
				}
				completed.Add(1)
			}
		}(int64(100 + g))
	}

	// Product mutator: inserts and deletes, logging the touched row.
	productRNG := rand.New(rand.NewSource(200))
	productRound := func() {
		defer mwg.Done()
		rng := productRNG
		for i := 0; i < roundMutations; i++ {
			logMu.Lock()
			if rng.Intn(2) == 0 || ix.NumProducts() < 50 {
				p := randProduct(rng, 3, 1.0)
				if _, err := ix.InsertProduct(p); err != nil {
					logMu.Unlock()
					errc <- err
					return
				}
				mutLog = append(mutLog, mutRecord{seq: ix.Epoch(), row: p})
			} else {
				id := rng.Intn(ix.NumProducts())
				row, err := ix.Product(id)
				if err == nil {
					err = ix.DeleteProduct(id)
				}
				if err != nil {
					logMu.Unlock()
					errc <- err
					return
				}
				mutLog = append(mutLog, mutRecord{seq: ix.Epoch(), row: row})
			}
			logMu.Unlock()
		}
	}

	// Preference mutator: every preference mutation affects every query.
	prefRNG := rand.New(rand.NewSource(300))
	prefRound := func() {
		defer mwg.Done()
		rng := prefRNG
		for i := 0; i < roundMutations; i++ {
			logMu.Lock()
			var err error
			if rng.Intn(2) == 0 || ix.NumPreferences() < 30 {
				_, err = ix.InsertPreference(randPreference(rng, 3))
			} else {
				err = ix.DeletePreference(rng.Intn(ix.NumPreferences()))
			}
			if err != nil {
				logMu.Unlock()
				errc <- err
				return
			}
			mutLog = append(mutLog, mutRecord{seq: ix.Epoch(), row: nil})
			logMu.Unlock()
		}
	}

	// Each round races both mutators against the queriers, then holds
	// the mutators until the queriers have made progress. A querier that
	// failed stops counting, so the wait also ends on a reported error.
	for r := 0; r < rounds && len(errc) == 0; r++ {
		mwg.Add(2)
		go productRound()
		go prefRound()
		mwg.Wait()
		target := completed.Load() + quietQueries
		for completed.Load() < target && len(errc) == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	qwg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	cs, ok := ix.CacheStats()
	if !ok {
		t.Fatal("cache disabled mid-test")
	}
	if cs.Hits == 0 {
		t.Fatalf("queriers never hit the cache: %+v", cs)
	}
	if cs.Invalidations == 0 && cs.Flushes == 0 {
		t.Fatalf("mutators never invalidated anything: %+v", cs)
	}

	// Goroutine-leak check: everything the test started must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
