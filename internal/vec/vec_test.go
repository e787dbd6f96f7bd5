package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{0.6, 0.7}, Vector{0.8, 0.2}, 0.62}, // Tom scoring p1, Figure 1
		{Vector{0.2, 0.3}, Vector{0.8, 0.2}, 0.22}, // Tom scoring p2
		{Vector{}, Vector{}, 0},
		{Vector{1, 2, 3}, Vector{0, 0, 0}, 0},
		{Vector{1}, Vector{5}, 5},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dot(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Dot2's two results must be bit-identical to separate Dot calls — the
// pairing is only legal in full-scan callers because scores cannot move.
func TestDot2BitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, d := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 33} {
		for trial := 0; trial < 20; trial++ {
			w, a, b := make(Vector, d), make(Vector, d), make(Vector, d)
			for i := 0; i < d; i++ {
				w[i] = rng.Float64()
				a[i] = rng.Float64() * 100
				b[i] = rng.Float64() * 100
			}
			s, u := Dot2(w, a, b)
			if s != Dot(w, a) || u != Dot(w, b) {
				t.Fatalf("d=%d: Dot2 = (%v, %v), Dot = (%v, %v)", d, s, u, Dot(w, a), Dot(w, b))
			}
		}
	}
}

func TestDot2PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot2 with mismatched dims should panic")
		}
	}()
	Dot2(Vector{1, 2}, Vector{1, 2}, Vector{1})
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched dims should panic")
		}
	}()
	Dot(Vector{1, 2}, Vector{1})
}

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q Vector
		want bool
	}{
		{Vector{1, 1}, Vector{2, 2}, true},
		{Vector{1, 2}, Vector{2, 2}, false}, // tie on one dim is not strict
		{Vector{3, 1}, Vector{2, 2}, false},
		{Vector{2, 2}, Vector{2, 2}, false},
		{Vector{0, 0, 0}, Vector{1, 1, 1}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestWeakDominates(t *testing.T) {
	if !WeakDominates(Vector{1, 2}, Vector{2, 2}) {
		t.Error("weak dominance with one tie should hold")
	}
	if WeakDominates(Vector{2, 2}, Vector{2, 2}) {
		t.Error("identical vectors do not weakly dominate")
	}
	if WeakDominates(Vector{3, 1}, Vector{2, 2}) {
		t.Error("incomparable vectors do not weakly dominate")
	}
}

// Property: strict dominance implies a strictly smaller score for every
// legal preference vector. This is the invariant the Domin buffer rests on.
func TestDominanceImpliesBetterScore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		d := 1 + rng.Intn(10)
		p := make(Vector, d)
		q := make(Vector, d)
		w := make(Vector, d)
		for i := 0; i < d; i++ {
			q[i] = rng.Float64()*100 + 1e-9
			p[i] = q[i] * rng.Float64() * 0.999 // strictly below q[i]
			w[i] = rng.Float64()
		}
		if !Normalize(w) {
			continue
		}
		if !Dominates(p, q) {
			t.Fatalf("constructed p=%v should dominate q=%v", p, q)
		}
		if Dot(w, p) >= Dot(w, q) {
			t.Fatalf("dominating p must score strictly lower: f(p)=%v f(q)=%v",
				Dot(w, p), Dot(w, q))
		}
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{2, 3, 5}
	if !Normalize(v) {
		t.Fatal("Normalize failed on positive vector")
	}
	if math.Abs(sum(v)-1) > 1e-12 {
		t.Errorf("normalized sum = %v, want 1", sum(v))
	}
	if math.Abs(v[0]-0.2) > 1e-12 {
		t.Errorf("v[0] = %v, want 0.2", v[0])
	}
	if Normalize(Vector{0, 0}) {
		t.Error("Normalize of zero vector should fail")
	}
	if Normalize(Vector{math.Inf(1), 1}) {
		t.Error("Normalize of infinite vector should fail")
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone must not share backing array")
	}
	if !Equal(v, Vector{1, 2, 3}) {
		t.Error("original changed")
	}
}

func TestEqual(t *testing.T) {
	if Equal(Vector{1, 2}, Vector{1, 2, 3}) {
		t.Error("different lengths are not equal")
	}
	if !Equal(Vector{1, 2}, Vector{1, 2}) {
		t.Error("identical vectors are equal")
	}
	if Equal(Vector{1, 2}, Vector{1, 2.5}) {
		t.Error("different values are not equal")
	}
}

// Property: MaxDiffScore/MinDiffScore bracket w·(p-q) for any w in the box.
func TestDiffScoreBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		d := 1 + rng.Intn(8)
		p, q, wlo, whi, w := make(Vector, d), make(Vector, d), make(Vector, d), make(Vector, d), make(Vector, d)
		for i := 0; i < d; i++ {
			p[i] = rng.Float64() * 10
			q[i] = rng.Float64() * 10
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			wlo[i], whi[i] = a, b
			w[i] = a + rng.Float64()*(b-a)
		}
		diff := Dot(w, p) - Dot(w, q)
		lo := MinDiffScore(p, q, wlo, whi)
		hi := MaxDiffScore(p, q, wlo, whi)
		if diff < lo-1e-9 || diff > hi+1e-9 {
			t.Fatalf("w·(p-q)=%v outside [%v, %v]", diff, lo, hi)
		}
	}
}

// Property: BoxDot brackets the score of any (p, w) drawn inside the boxes.
func TestBoxDotBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		d := 1 + rng.Intn(8)
		plo, phi, wlo, whi := make(Vector, d), make(Vector, d), make(Vector, d), make(Vector, d)
		p, w := make(Vector, d), make(Vector, d)
		for i := 0; i < d; i++ {
			a, b := rng.Float64()*10, rng.Float64()*10
			if a > b {
				a, b = b, a
			}
			plo[i], phi[i] = a, b
			p[i] = a + rng.Float64()*(b-a)
			a, b = rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			wlo[i], whi[i] = a, b
			w[i] = a + rng.Float64()*(b-a)
		}
		lo, hi := BoxDot(plo, phi, wlo, whi)
		s := Dot(p, w)
		if s < lo-1e-9 || s > hi+1e-9 {
			t.Fatalf("score %v outside box bound [%v, %v]", s, lo, hi)
		}
	}
}

func TestL2(t *testing.T) {
	if got := L2(Vector{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2(3,4) = %v, want 5", got)
	}
	if got := L2(Vector{}); got != 0 {
		t.Errorf("L2(empty) = %v, want 0", got)
	}
}

// quick-check: Dot is symmetric and linear in its first argument.
func TestDotSymmetricQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:half*2]
		for _, x := range raw {
			// Skip values whose products overflow: Inf + (-Inf) = NaN and
			// NaN breaks equality without violating symmetry.
			if math.IsNaN(x) || math.Abs(x) > 1e150 {
				return true
			}
		}
		return Dot(a, b) == Dot(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSum(t *testing.T) {
	if sum(Vector{1, 2, 3}) != 6 {
		t.Error("Sum(1,2,3) != 6")
	}
	if sum(nil) != 0 {
		t.Error("sum(nil) != 0")
	}
}

func TestMinMaxScore(t *testing.T) {
	p := Vector{2, 4}
	wlo := Vector{0.1, 0.2}
	whi := Vector{0.5, 0.9}
	if got := MinScore(p, wlo); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("MinScore = %v, want 1.0", got)
	}
	if got := MaxScore(p, whi); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("MaxScore = %v, want 4.6", got)
	}
}

// The helpers below are test-side score and dominance references the
// tests above check the package's kernels against.

// WeakDominates reports whether p[i] <= q[i] on every dimension with
// strict inequality on at least one (the query algorithms use the strict
// Dominates).
func WeakDominates(p, q Vector) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(p), len(q)))
	}
	strict := false
	for i, pi := range p {
		if pi > q[i] {
			return false
		}
		if pi < q[i] {
			strict = true
		}
	}
	return strict
}

// MinScore returns the smallest score any weight vector inside the box
// [wlo, whi] can assign to point p: Σ wlo[i]·p[i], valid because p is
// non-negative.
func MinScore(p, wlo Vector) float64 { return Dot(p, wlo) }

// MaxScore returns the largest score any weight vector inside the box
// [wlo, whi] can assign to p: Σ whi[i]·p[i].
func MaxScore(p, whi Vector) float64 { return Dot(p, whi) }

// BoxDot bounds the score of any point inside the box [plo, phi] under
// any weight inside [wlo, whi]: lower = Σ wlo[i]·plo[i], upper =
// Σ whi[i]·phi[i]. All coordinates are non-negative, which makes the
// corner products exact bounds.
func BoxDot(plo, phi, wlo, whi Vector) (lower, upper float64) {
	if len(plo) != len(phi) || len(plo) != len(wlo) || len(plo) != len(whi) {
		panic("vec: dimension mismatch in BoxDot")
	}
	for i := range plo {
		lower += wlo[i] * plo[i]
		upper += whi[i] * phi[i]
	}
	return lower, upper
}

// L2 returns the Euclidean norm of v.
func L2(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
