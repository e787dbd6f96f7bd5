package grid

import (
	"fmt"
	"sort"

	"gridrank/internal/vec"
)

// Adaptive is the non-equal-width Grid-index sketched in the paper's
// future work (Section 7): instead of cutting the value ranges into equal
// partitions, the boundaries are placed at the empirical quantiles of the
// indexed data, so every cell holds roughly the same number of values.
// On skewed data (exponential attributes, simplex-concentrated weights)
// this keeps the per-cell bound width small where the data actually is,
// recovering filtering power an equal-width grid wastes on empty cells.
//
// The table layout and bound equations are identical to the equal-width
// Grid — only the boundary vectors α_p, α_w differ — so Adaptive satisfies
// the same Bounder contract and plugs into the GIR algorithms unchanged.
type Adaptive struct {
	n      int
	edgesP []float64 // n+1 ascending boundaries for point values
	edgesW []float64 // n+1 ascending boundaries for weight values
	table  []float64 // flattened (n+1)×(n+1) products
	loCols [][]float64
	upCols [][]float64
}

// NewAdaptive builds an n-partition adaptive grid whose point boundaries
// are the pooled quantiles of all attribute values of points and whose
// weight boundaries are the pooled quantiles of all weight components.
// maxP must be at least the largest point attribute that will ever be
// queried (the top boundary); weights are bounded by 1. It panics on
// invalid shape parameters and empty samples, as construction inputs are
// programmatic.
func NewAdaptive(n int, points, weights []vec.Vector, maxP float64) *Adaptive {
	if n < 1 || n > MaxPartitions {
		panic(fmt.Sprintf("grid: partitions %d outside [1, %d]", n, MaxPartitions))
	}
	if len(points) == 0 || len(weights) == 0 {
		panic("grid: adaptive grid needs non-empty samples")
	}
	if maxP <= 0 {
		panic(fmt.Sprintf("grid: non-positive range %v", maxP))
	}
	a := &Adaptive{
		n:      n,
		edgesP: quantileEdges(pool(points), n, maxP),
		edgesW: quantileEdges(pool(weights), n, 1),
		table:  make([]float64, (n+1)*(n+1)),
	}
	for i := 0; i <= n; i++ {
		row := a.table[i*(n+1):]
		for j := 0; j <= n; j++ {
			row[j] = a.edgesP[i] * a.edgesW[j]
		}
	}
	a.loCols, a.upCols = buildColumns(a.table, n)
	return a
}

// pool flattens all components of all vectors into one sample.
func pool(vs []vec.Vector) []float64 {
	out := make([]float64, 0, len(vs)*len(vs[0]))
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// quantileEdges returns n+1 strictly increasing boundaries: edge 0 is 0,
// edge n is max, and the interior edges sit at the sample's k/n quantiles
// (deduplicated; repeated quantiles collapse toward equal spacing so the
// edge vector stays strictly monotone).
func quantileEdges(sample []float64, n int, max float64) []float64 {
	sort.Float64s(sample)
	edges := make([]float64, n+1)
	edges[0] = 0
	edges[n] = max
	for k := 1; k < n; k++ {
		idx := k * len(sample) / n
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		edges[k] = sample[idx]
	}
	// Enforce strict monotonicity: ties (heavy duplicates in the sample)
	// are resolved by nudging toward an even split of the remaining span.
	for k := 1; k <= n; k++ {
		if edges[k] <= edges[k-1] {
			remaining := n - k + 1
			step := (max - edges[k-1]) / float64(remaining+1)
			if step <= 0 {
				step = 1e-12
			}
			edges[k] = edges[k-1] + step
		}
	}
	if edges[n] < max {
		edges[n] = max
	}
	return edges
}

// N returns the partition count per axis.
func (a *Adaptive) N() int { return a.n }

// MemoryBytes returns the footprint of the tables and edge vectors.
func (a *Adaptive) MemoryBytes() int {
	return 8 * (len(a.table) + 2*a.n*a.n + len(a.edgesP) + len(a.edgesW))
}

// LowerColumn returns the lower-bound addends for weight cell j.
func (a *Adaptive) LowerColumn(j uint8) []float64 { return a.loCols[j] }

// UpperColumn returns the upper-bound addends for weight cell j.
func (a *Adaptive) UpperColumn(j uint8) []float64 { return a.upCols[j] }

// cellOf locates x among ascending edges: the largest c with
// edges[c] <= x, clamped to [0, n-1]. Values above the top edge land in
// the last cell; the bounds then remain valid because edge n is the
// declared maximum.
func cellOf(edges []float64, x float64) uint8 {
	n := len(edges) - 1
	if x <= edges[0] {
		return 0
	}
	if x >= edges[n] {
		return uint8(n - 1)
	}
	// Binary search for the insertion point, then step back to the cell.
	c := sort.SearchFloat64s(edges, x)
	if c > 0 && edges[c] != x {
		c--
	}
	if c >= n {
		c = n - 1
	}
	return uint8(c)
}

// ApproxPoint fills dst with the adaptive approximate vector of a point.
func (a *Adaptive) ApproxPoint(p vec.Vector, dst []uint8) []uint8 {
	if len(dst) != len(p) {
		panic(fmt.Sprintf("grid: approx buffer length %d, want %d", len(dst), len(p)))
	}
	for i, x := range p {
		dst[i] = cellOf(a.edgesP, x)
	}
	return dst
}

// ApproxWeight fills dst with the adaptive approximate vector of a weight.
func (a *Adaptive) ApproxWeight(w vec.Vector, dst []uint8) []uint8 {
	if len(dst) != len(w) {
		panic(fmt.Sprintf("grid: approx buffer length %d, want %d", len(dst), len(w)))
	}
	for i, x := range w {
		dst[i] = cellOf(a.edgesW, x)
	}
	return dst
}

// Bounds returns both bounds in one pass.
func (a *Adaptive) Bounds(pa, wa []uint8) (lower, upper float64) {
	stride := a.n + 1
	for i, pi := range pa {
		base := int(pi)*stride + int(wa[i])
		lower += a.table[base]
		upper += a.table[base+stride+1]
	}
	return lower, upper
}

// compile-time interface checks.
var (
	_ Bounder = (*Grid)(nil)
	_ Bounder = (*Adaptive)(nil)
)
