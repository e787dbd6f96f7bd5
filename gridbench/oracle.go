package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// oracle answers reverse rank queries by brute force over a fixed
// catalog, with the strict-less tie rule of DESIGN.md §1:
// rank(w, q) = #{p : f_w(p) < f_w(q)}, reverse top-k admits w iff
// rank(w, q) < k, and reverse k-ranks returns the k preferences with the
// smallest (rank, id). It scores every (preference, product) pair once
// and sorts each preference's scores, so a rank is a binary search: the
// same exact counts as a per-query scan, cheap enough to check every
// distinct query of a run.
type oracle struct {
	prefs  [][]float64
	scores [][]float64 // scores[w] = f_w(p) for every product, ascending
}

// score is f_w(p), summed in index order like the library's inner
// product, so ties and near-ties compare exactly as the index sees them.
func score(w, p []float64) float64 {
	var s float64
	for i := range w {
		s += w[i] * p[i]
	}
	return s
}

func newOracle(products, prefs [][]float64) *oracle {
	o := &oracle{prefs: slices.Clone(prefs), scores: make([][]float64, len(prefs))}
	for wi, w := range prefs {
		o.scores[wi] = sortedScores(w, products)
	}
	return o
}

func sortedScores(w []float64, products [][]float64) []float64 {
	s := make([]float64, len(products))
	for pi, p := range products {
		s[pi] = score(w, p)
	}
	sort.Float64s(s)
	return s
}

// insertProduct, deleteProduct, insertPref and deletePref follow a
// catalog mutation, so a churn run's reads can be checked epoch by
// epoch without rescoring the catalog. deleteProduct takes the deleted
// product's vector: its score is found again exactly, since score is
// deterministic.
func (o *oracle) insertProduct(p []float64) {
	for wi, w := range o.prefs {
		s := score(w, p)
		o.scores[wi] = slices.Insert(o.scores[wi], sort.SearchFloat64s(o.scores[wi], s), s)
	}
}

func (o *oracle) deleteProduct(p []float64) {
	for wi, w := range o.prefs {
		k := sort.SearchFloat64s(o.scores[wi], score(w, p))
		o.scores[wi] = slices.Delete(o.scores[wi], k, k+1)
	}
}

func (o *oracle) insertPref(w []float64, products [][]float64) {
	o.prefs = append(o.prefs, w)
	o.scores = append(o.scores, sortedScores(w, products))
}

func (o *oracle) deletePref(id int) {
	o.prefs = slices.Delete(o.prefs, id, id+1)
	o.scores = slices.Delete(o.scores, id, id+1)
}

// rank is the number of products scoring strictly below q under
// preference wi.
func (o *oracle) rank(wi int, q []float64) int {
	return sort.SearchFloat64s(o.scores[wi], score(o.prefs[wi], q))
}

// reverseTopK returns the ascending ids of the preferences ranking q
// within their top k.
func (o *oracle) reverseTopK(q []float64, k int) []int {
	var ids []int
	for wi := range o.prefs {
		if o.rank(wi, q) < k {
			ids = append(ids, wi)
		}
	}
	return ids
}

// rankedPref is one reverse k-ranks member.
type rankedPref struct{ Pref, Rank int }

// reverseKRanks returns the k preferences with the smallest rank of q,
// ordered by (rank, id).
func (o *oracle) reverseKRanks(q []float64, k int) []rankedPref {
	all := make([]rankedPref, len(o.prefs))
	for wi := range o.prefs {
		all[wi] = rankedPref{Pref: wi, Rank: o.rank(wi, q)}
	}
	slices.SortFunc(all, func(a, b rankedPref) int {
		if a.Rank != b.Rank {
			return a.Rank - b.Rank
		}
		return a.Pref - b.Pref
	})
	return all[:min(k, len(all))]
}

// answer is the oracle's answer to a read op, hashed the same way the
// load generator hashes the program's answer.
func (o *oracle) answer(kind opKind, q []float64, k int) uint64 {
	if kind == opRKR {
		return hashKRanks(o.reverseKRanks(q, k))
	}
	return hashTopK(o.reverseTopK(q, k))
}

// hashTopK and hashKRanks fingerprint an answer in its canonical order
// (ascending ids; ascending (rank, id)), so equal answers hash equal.
func hashTopK(ids []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		putInt(b[:], id)
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashKRanks(ms []rankedPref) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ms {
		putInt(b[:], m.Pref)
		h.Write(b[:])
		putInt(b[:], m.Rank)
		h.Write(b[:])
	}
	return h.Sum64() ^ 1 // keep an empty k-ranks answer apart from an empty top-k one
}

func putInt(b []byte, v int) {
	for i := range b {
		b[i] = byte(uint64(v) >> (8 * i))
	}
}

// checkReads verifies every successful read of a static-catalog run:
// each distinct (kind, k, query) is answered once by the oracle, and
// every response to it must hash to that answer.
func checkReads(w *workload, samples []sample) error {
	o := newOracle(w.Products, w.Prefs)
	type key struct {
		kind opKind
		k    int32
		vec  int32
	}
	want := map[key]uint64{}
	for i := range samples {
		s := &samples[i]
		if !s.done || s.failed {
			continue
		}
		op := w.Ops[i]
		if op.Kind != opRTK && op.Kind != opRKR {
			return fmt.Errorf("op %d: unexpected mutation in a read-only workload", i)
		}
		kk := key{op.Kind, op.K, op.Vec}
		h, ok := want[kk]
		if !ok {
			h = o.answer(op.Kind, w.Vecs[op.Vec], int(op.K))
			want[kk] = h
		}
		if s.hash != h {
			return fmt.Errorf("op %d (%s k=%d, query %d): answer differs from the brute-force oracle",
				i, classNames[op.Kind.class()], op.K, op.Vec)
		}
	}
	return nil
}
