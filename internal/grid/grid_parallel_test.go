package grid

import (
	"bytes"
	"math/rand"
	"testing"

	"gridrank/internal/vec"
)

// TestParallelIndexConstruction verifies the sharded row fill produces
// byte-identical approximate vectors at every worker count, including on
// sets large enough to cross the parallel threshold.
func TestParallelIndexConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := 6
	points := make([]vec.Vector, 4000) // 24k cells: above parallelRowThreshold
	weights := make([]vec.Vector, 4000)
	for i := range points {
		p := make(vec.Vector, d)
		w := make(vec.Vector, d)
		var sum float64
		for j := 0; j < d; j++ {
			p[j] = rng.Float64() * 100
			w[j] = rng.Float64()
			sum += w[j]
		}
		for j := 0; j < d; j++ {
			w[j] /= sum
		}
		points[i] = p
		weights[i] = w
	}
	g := New(32, 100, 1)
	wantP := newIndex(g, points, true, 1).Cells()
	wantW := newIndex(g, weights, false, 1).Cells()
	for _, workers := range []int{0, 2, 3, 8} {
		if got := newIndex(g, points, true, workers).Cells(); !bytes.Equal(got, wantP) {
			t.Errorf("workers=%d: point cells differ from serial build", workers)
		}
		if got := newIndex(g, weights, false, workers).Cells(); !bytes.Equal(got, wantW) {
			t.Errorf("workers=%d: weight cells differ from serial build", workers)
		}
	}
	// Ragged input still panics, now from the up-front validation.
	defer func() {
		if recover() == nil {
			t.Error("ragged input should panic")
		}
	}()
	newIndex(g, []vec.Vector{{1, 2}, {1}}, true, 4)
}
