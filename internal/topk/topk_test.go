package topk

import (
	"math/rand"
	"sort"
	"testing"

	"gridrank/internal/dataset"
	"gridrank/internal/stats"
	"gridrank/internal/vec"
)

// figure1Phones is the cell-phone example of Figure 1 (smart, rating).
var figure1Phones = []vec.Vector{
	{0.6, 0.7}, // p1
	{0.2, 0.3}, // p2
	{0.1, 0.6}, // p3
	{0.7, 0.5}, // p4
	{0.8, 0.2}, // p5
}

var (
	tom   = vec.Vector{0.8, 0.2}
	jerry = vec.Vector{0.3, 0.7}
	spike = vec.Vector{0.9, 0.1}
)

func TestTopKMatchesFigure1(t *testing.T) {
	// Figure 1(a): Tom's top-2 is {p3, p2}, Jerry's {p2, p5}, Spike's {p2, p3}.
	cases := []struct {
		name string
		w    vec.Vector
		want []int // 0-based indexes in figure1Phones
	}{
		{"Tom", tom, []int{2, 1}},
		{"Jerry", jerry, []int{1, 4}},
		// Figure 1(a) prints Spike's set as "p2,p3" but Figure 1(c) gives
		// p3 rank 1 and p2 rank 2 for Spike (0.15 < 0.21): score order is
		// p3 then p2; the 1(a) cell is unordered.
		{"Spike", spike, []int{2, 1}},
	}
	for _, c := range cases {
		got := TopK(figure1Phones, c.w, 2, nil)
		if len(got) != 2 {
			t.Fatalf("%s: got %d results", c.name, len(got))
		}
		for i, want := range c.want {
			if got[i].Index != want {
				t.Errorf("%s: top-2[%d] = p%d, want p%d", c.name, i, got[i].Index+1, want+1)
			}
		}
	}
}

func TestRankMatchesFigure1(t *testing.T) {
	// Figure 1(c): ranks of each phone per user (1-based = Rank+1).
	wantRank := map[string][]int{ // per phone p1..p5
		"Tom":   {3, 2, 1, 4, 5},
		"Jerry": {5, 1, 3, 4, 2},
		"Spike": {3, 2, 1, 4, 5},
	}
	users := map[string]vec.Vector{"Tom": tom, "Jerry": jerry, "Spike": spike}
	for name, w := range users {
		for i, q := range figure1Phones {
			got := Rank(figure1Phones, w, q, nil) + 1 // q ∈ P, beats itself never
			if got != wantRank[name][i] {
				t.Errorf("%s rank of p%d = %d, want %d", name, i+1, got, wantRank[name][i])
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if got := TopK(figure1Phones, tom, 0, nil); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := TopK(figure1Phones, tom, -3, nil); got != nil {
		t.Error("negative k should return nil")
	}
	got := TopK(figure1Phones, tom, 100, nil)
	if len(got) != len(figure1Phones) {
		t.Errorf("k > |P| returns full ranking, got %d", len(got))
	}
	// Full ranking must be sorted ascending.
	if !sort.SliceIsSorted(got, func(a, b int) bool { return less(got[a], got[b]) }) {
		t.Error("results not sorted")
	}
}

func TestTopKAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	P := dataset.GenerateProducts(rng, dataset.Uniform, 500, 4, 1).Points
	for iter := 0; iter < 50; iter++ {
		W := dataset.GenerateWeights(rng, dataset.Uniform, 1, 4).Points[0]
		k := 1 + rng.Intn(20)
		got := TopK(P, W, k, nil)
		// Reference: full sort.
		ref := make([]Result, len(P))
		for i, p := range P {
			ref[i] = Result{i, vec.Dot(W, p)}
		}
		sort.Slice(ref, func(a, b int) bool { return less(ref[a], ref[b]) })
		for i := 0; i < k; i++ {
			if got[i] != ref[i] {
				t.Fatalf("iter %d: top-%d[%d] = %+v, want %+v", iter, k, i, got[i], ref[i])
			}
		}
	}
}

func TestTopKDeterministicOnTies(t *testing.T) {
	P := []vec.Vector{{1, 1}, {1, 1}, {1, 1}, {0, 0}}
	w := vec.Vector{0.5, 0.5}
	got := TopK(P, w, 3, nil)
	want := []int{3, 0, 1}
	for i := range want {
		if got[i].Index != want[i] {
			t.Fatalf("tie order: got %v", got)
		}
	}
}

func TestRankBounded(t *testing.T) {
	// p4 under Tom ranks 4th: 3 points beat it.
	q := figure1Phones[3]
	r, ok := RankBounded(figure1Phones, tom, q, 10, nil)
	if !ok || r != 3 {
		t.Errorf("RankBounded full = (%d, %v), want (3, true)", r, ok)
	}
	r, ok = RankBounded(figure1Phones, tom, q, 2, nil)
	if ok || r != 2 {
		t.Errorf("RankBounded cutoff 2 = (%d, %v), want (2, false)", r, ok)
	}
	r, ok = RankBounded(figure1Phones, tom, q, 0, nil)
	if ok || r != 0 {
		t.Errorf("RankBounded cutoff 0 = (%d, %v), want (0, false)", r, ok)
	}
}

func TestRankCountsOps(t *testing.T) {
	var c stats.Counters
	Rank(figure1Phones, tom, figure1Phones[0], &c)
	// 1 for f_w(q) + 5 for the points.
	if c.PairwiseMults != 6 {
		t.Errorf("PairwiseMults = %d, want 6", c.PairwiseMults)
	}
	if c.PointsVisited != 5 {
		t.Errorf("PointsVisited = %d, want 5", c.PointsVisited)
	}
}

func TestKRankHeap(t *testing.T) {
	kh := NewKRankHeap(2)
	if kh.Threshold() != int(^uint(0)>>1) {
		t.Error("empty heap should admit everything")
	}
	if !kh.Offer(Match{WeightIndex: 0, Rank: 50}) {
		t.Error("first offer must be kept")
	}
	if !kh.Offer(Match{WeightIndex: 1, Rank: 10}) {
		t.Error("second offer must be kept")
	}
	if kh.Threshold() != 50 {
		t.Errorf("threshold = %d, want 50", kh.Threshold())
	}
	if kh.Offer(Match{WeightIndex: 2, Rank: 50}) {
		t.Error("equal rank with higher index must be rejected")
	}
	if !kh.Offer(Match{WeightIndex: 3, Rank: 5}) {
		t.Error("better rank must be kept")
	}
	if kh.Threshold() != 10 {
		t.Errorf("threshold after eviction = %d, want 10", kh.Threshold())
	}
	res := kh.Results()
	if len(res) != 2 || res[0] != (Match{3, 5}) || res[1] != (Match{1, 10}) {
		t.Errorf("Results = %+v", res)
	}
}

func TestKRankHeapTieKeepsLowerIndex(t *testing.T) {
	kh := NewKRankHeap(1)
	kh.Offer(Match{WeightIndex: 5, Rank: 7})
	if kh.Offer(Match{WeightIndex: 9, Rank: 7}) {
		t.Error("tie with higher index should be rejected")
	}
	if !kh.Offer(Match{WeightIndex: 2, Rank: 7}) {
		t.Error("tie with lower index should replace")
	}
	if got := kh.Results()[0].WeightIndex; got != 2 {
		t.Errorf("kept index %d, want 2", got)
	}
}

func TestKRankHeapAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 100; iter++ {
		k := 1 + rng.Intn(10)
		n := 1 + rng.Intn(50)
		kh := NewKRankHeap(k)
		all := make([]Match, n)
		for i := range all {
			all[i] = Match{WeightIndex: i, Rank: rng.Intn(20)}
			kh.Offer(all[i])
		}
		sort.Slice(all, func(a, b int) bool { return matchWorse(all[b], all[a]) })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := kh.Results()
		if len(got) != len(want) {
			t.Fatalf("iter %d: got %d results, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: result[%d] = %+v, want %+v", iter, i, got[i], want[i])
			}
		}
	}
}

func TestNewKRankHeapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 should panic")
		}
	}()
	NewKRankHeap(0)
}

// RankBounded is the test-side per-point early-exit rank: Rank with early
// termination, reporting (cutoff, false) as soon as the count reaches
// cutoff. ok is true when the exact rank (< cutoff) was determined.
func RankBounded(P []vec.Vector, w, q vec.Vector, cutoff int, c *stats.Counters) (rank int, ok bool) {
	if cutoff <= 0 {
		return 0, false
	}
	fq := vec.Dot(w, q)
	if c != nil {
		c.PairwiseMults++
	}
	for _, p := range P {
		if c != nil {
			c.PairwiseMults++
			c.PointsVisited++
		}
		if vec.Dot(w, p) < fq {
			rank++
			if rank >= cutoff {
				return cutoff, false
			}
		}
	}
	return rank, true
}
