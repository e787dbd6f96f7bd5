package gridrank

import (
	"bytes"
	"context"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func batchIndex(t *testing.T) (*Index, []Vector) {
	t.Helper()
	P, err := GenerateProducts(11, Uniform, 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(12, Uniform, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix, P
}

func TestBatchMatchesSequential(t *testing.T) {
	ix, P := batchIndex(t)
	queries := P[:40]
	for _, workers := range []int{0, 1, 3, 64} {
		rtk := ix.ReverseTopKBatchCtx(context.Background(), queries, 15, workers)
		rkr := ix.ReverseKRanksBatchCtx(context.Background(), queries, 15, workers)
		if len(rtk) != len(queries) || len(rkr) != len(queries) {
			t.Fatalf("workers=%d: wrong result count", workers)
		}
		for i, q := range queries {
			if rtk[i].Query != i || rtk[i].Err != nil {
				t.Fatalf("workers=%d rtk[%d]: %+v", workers, i, rtk[i])
			}
			want, err := ix.ReverseTopKCtx(context.Background(), q, 15)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(rtk[i].Value) {
				t.Fatalf("workers=%d query %d: batch %v vs sequential %v",
					workers, i, rtk[i].Value, want)
			}
			for j := range want {
				if rtk[i].Value[j] != want[j] {
					t.Fatalf("workers=%d query %d: batch %v vs sequential %v",
						workers, i, rtk[i].Value, want)
				}
			}
			wantKR, err := ix.ReverseKRanksCtx(context.Background(), q, 15)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantKR {
				if rkr[i].Value[j] != wantKR[j] {
					t.Fatalf("workers=%d query %d RKR mismatch", workers, i)
				}
			}
		}
	}
}

// TestBatchPinsWorkerGoroutines pins the fix for worker multiplication:
// a batch on an index configured with intra-query Parallelism used to
// spawn workers × Parallelism goroutines (each per-query scan picked up
// the index default underneath the batch's own pool). The batch forces
// one-worker per-query scans, which run inline on the batch goroutines,
// so no sharded-scan worker — a goroutine carrying the rrq_query pprof
// label — may exist while the batch runs. Counting only those labeled
// workers, not the process goroutine total, keeps runtime helpers out
// of the measurement.
func TestBatchPinsWorkerGoroutines(t *testing.T) {
	P, err := GenerateProducts(41, Uniform, 4000, 6)
	if err != nil {
		t.Fatal(err)
	}
	W, err := GeneratePreferences(42, Uniform, 1200, 6)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(P, W, &Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := P[:48]
	const batchWorkers = 4
	var res []BatchResult[[]int]
	peak := sampleScanWorkers(func() {
		res = ix.ReverseTopKBatchCtx(context.Background(), queries, 10, batchWorkers)
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	if peak > 0 {
		t.Fatalf("%d sharded-scan worker goroutines during the batch: per-query scans multiplied the batch workers", peak)
	}
	// An explicit per-query override still shards — the sampler sees
	// its labeled workers, so the zero above is not a blind sampler —
	// and answers identically.
	deadline := time.Now().Add(10 * time.Second)
	for seen := 0; seen == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no labeled scan worker seen during WithWorkers(3) batches")
		}
		var over []BatchResult[[]int]
		seen = sampleScanWorkers(func() {
			over = ix.ReverseTopKBatchCtx(context.Background(), queries[:8], 10, 2, WithWorkers(3))
		})
		for i := range over {
			if over[i].Err != nil {
				t.Fatalf("override query %d: %v", i, over[i].Err)
			}
			want, err := ix.ReverseTopKCtx(context.Background(), queries[i], 10, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(want, over[i].Value) {
				t.Fatalf("override answers differ for query %d", i)
			}
		}
	}
}

// sampleScanWorkers runs f while repeatedly sampling the goroutine
// profile, and returns the largest number of goroutines carrying the
// rrq_query label (the sharded GIR scan's workers) seen in one sample.
// f must return normally (no t.Fatal), or the sampler never stops.
func sampleScanWorkers(f func()) int {
	stop := make(chan struct{})
	peakc := make(chan int)
	go func() {
		peak := 0
		for {
			if n := scanWorkerGoroutines(); n > peak {
				peak = n
			}
			select {
			case <-stop:
				peakc <- peak
				return
			default:
			}
		}
	}()
	f()
	close(stop)
	return <-peakc
}

// scanWorkerGoroutines counts the goroutines whose pprof labels include
// rrq_query. The debug=1 goroutine profile prints one record per
// distinct stack, headed "<count> @ <pcs>" and followed by its labels.
func scanWorkerGoroutines() int {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		panic(err)
	}
	n := 0
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, `"rrq_query":`) {
			continue
		}
		if count, _, ok := strings.Cut(rec, " @ "); ok {
			c, err := strconv.Atoi(strings.TrimSpace(count[strings.LastIndex(count, "\n")+1:]))
			if err == nil {
				n += c
			}
		}
	}
	return n
}

func TestBatchEmpty(t *testing.T) {
	ix, _ := batchIndex(t)
	if got := ix.ReverseTopKBatchCtx(context.Background(), nil, 5, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

func TestBatchReportsPerQueryErrors(t *testing.T) {
	ix, P := batchIndex(t)
	queries := []Vector{P[0], {1, 2}, P[1]} // middle query has wrong dim
	res := ix.ReverseTopKBatchCtx(context.Background(), queries, 5, 2)
	if res[0].Err != nil || res[2].Err != nil {
		t.Error("valid queries should succeed")
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "dimension") {
		t.Errorf("bad query error = %v", res[1].Err)
	}
}
