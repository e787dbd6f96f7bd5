// Package vec provides the d-dimensional vector primitives shared by every
// other package in gridrank: inner products, dominance tests, and score
// bounds of a fixed point over an axis-aligned box of weight vectors.
//
// Throughout the library a product point p has non-negative attributes in
// [0, r) and a preference vector w has non-negative weights summing to 1.
// Smaller scores f_w(p) = Σ w[i]·p[i] are preferable, following the paper's
// convention.
package vec

import (
	"fmt"
	"math"
)

// Vector is a d-dimensional point or weight vector. It is a type alias so
// that []float64 values flow freely between the public API and internal
// packages without copying.
type Vector = []float64

// Dot returns the inner product Σ a[i]·b[i], the score function f_w(p) of
// the paper. It panics if the lengths differ, since mismatched
// dimensionality is always a programming error.
//
// The loop is unrolled 4-wide with a scalar tail. The accumulator is a
// single variable updated in index order, so the floating-point result is
// bit-identical to the naive loop — rank comparisons must not move when
// the kernel changes shape. Each block is accessed through a capped
// sub-slice (a[i:i+4:i+4]), which reduces the four per-element bounds
// checks to one slice check per block; among the unroll shapes measured
// (naive, reslice-advance, indexed blocks) this one is fastest from d = 6
// through d = 64.
func Dot(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+4 <= len(a) && i+4 <= len(b); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s += aa[0] * bb[0]
		s += aa[1] * bb[1]
		s += aa[2] * bb[2]
		s += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Dot2 returns (Σ w[i]·a[i], Σ w[i]·b[i]), the two-row widening of Dot:
// full-scan callers scoring consecutive points under one weight share the
// w loads across both rows and give the CPU two independent multiply-add
// chains to overlap. Each output uses its own accumulator updated in
// index order with the same 4-wide unroll as Dot, so both results are
// bit-identical to calling Dot twice — rank comparisons must not move
// when a caller switches to the paired kernel.
//
// Only safe for callers that evaluate every row unconditionally (TopK,
// Rank): early-exit scans would compute the second row speculatively and
// distort visit counters.
func Dot2(w, a, b Vector) (float64, float64) {
	if len(w) != len(a) || len(w) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d, %d != %d", len(a), len(b), len(w)))
	}
	var s, t float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		ww := w[i : i+4 : i+4]
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s += ww[0] * aa[0]
		t += ww[0] * bb[0]
		s += ww[1] * aa[1]
		t += ww[1] * bb[1]
		s += ww[2] * aa[2]
		t += ww[2] * bb[2]
		s += ww[3] * aa[3]
		t += ww[3] * bb[3]
	}
	for ; i < len(w); i++ {
		s += w[i] * a[i]
		t += w[i] * b[i]
	}
	return s, t
}

// Dominates reports whether p strictly dominates q under the
// minimum-is-preferable convention: p[i] < q[i] on every dimension.
//
// Strict inequality on every coordinate guarantees f_w(p) < f_w(q) for every
// legal preference vector w (non-negative weights summing to one), which is
// what the Domin buffer of the GIR and SIM algorithms relies on.
func Dominates(p, q Vector) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(p), len(q)))
	}
	for i, pi := range p {
		if pi >= q[i] {
			return false
		}
	}
	return true
}

// Equal reports exact element-wise equality.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i, ai := range a {
		if ai != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a fresh copy of v.
func Clone(v Vector) Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// sum returns Σ v[i].
func sum(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Normalize scales v in place so that Σ v[i] = 1, turning any non-negative,
// non-zero vector into a legal preference vector. It reports whether
// normalization was possible (the sum was positive and finite).
func Normalize(v Vector) bool {
	s := sum(v)
	if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		return false
	}
	for i := range v {
		v[i] /= s
	}
	return true
}

// MaxDiffScore returns max over w in the box [wlo, whi] of w·(p-q).
// Because every w is component-wise non-negative, the maximum picks
// whi[i] where p[i]-q[i] > 0 and wlo[i] where it is negative.
//
// If the result is negative, every weight vector in the box scores p
// strictly below q, i.e. p beats q for the whole box. This is the exact
// per-w test that BBR and MPA use to count whole P-subtrees into the rank
// of q for a whole group of weight vectors at once.
func MaxDiffScore(p, q, wlo, whi Vector) float64 {
	if len(p) != len(q) || len(p) != len(wlo) || len(p) != len(whi) {
		panic("vec: dimension mismatch in MaxDiffScore")
	}
	var s float64
	for i := range p {
		v := p[i] - q[i]
		if v > 0 {
			s += whi[i] * v
		} else {
			s += wlo[i] * v
		}
	}
	return s
}

// MinDiffScore returns min over w in the box [wlo, whi] of w·(p-q); if the
// result is positive, q beats p for every weight vector in the box.
func MinDiffScore(p, q, wlo, whi Vector) float64 {
	if len(p) != len(q) || len(p) != len(wlo) || len(p) != len(whi) {
		panic("vec: dimension mismatch in MinDiffScore")
	}
	var s float64
	for i := range p {
		v := p[i] - q[i]
		if v > 0 {
			s += wlo[i] * v
		} else {
			s += whi[i] * v
		}
	}
	return s
}
