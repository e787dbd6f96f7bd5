// Package grid implements the paper's core contribution: the Grid-index
// (Section 3), a small table of pre-computed boundary products that turns
// the inner-product score into cheap lower and upper bounds, plus the
// approximate vectors P^(A) and W^(A) that index into it.
//
// With the value range of points divided into n partitions (boundaries
// α_p[i] = i·r_p/n) and likewise for weights (α_w[j] = j·r_w/n, r_w = 1),
// the Grid-index is the (n+1)×(n+1) table
//
//	Grid[i][j] = α_p[i] · α_w[j]
//
// For a point p with approximate vector p^(a) and weight w with w^(a),
//
//	L[f_w(p)] = Σ_i Grid[p^(a)[i]][w^(a)[i]]
//	U[f_w(p)] = Σ_i Grid[p^(a)[i]+1][w^(a)[i]+1]
//
// bracket the true score using additions and table lookups only; no
// multiplications. The three-way precedence classification (Cases 1–3 of
// Section 3.1) drives the GIR filtering.
package grid

import (
	"fmt"
	"runtime"
	"sync"

	"gridrank/internal/vec"
)

// MaxPartitions bounds the per-axis partition count so approximate cells
// fit one byte. The paper's largest evaluated grid is n = 128; byte cells
// keep P^(A) and W^(A) eight times denser than the raw float data, which
// is what makes the bound scan memory-bound-friendly.
const MaxPartitions = 256

// Bounder is the contract shared by the equal-width Grid of the paper and
// the adaptive (quantile-boundary) grid of its future-work Section 7: map
// values to partition cells and turn approximate vectors into score
// bounds. All implementations must guarantee Lower ≤ f_w(p) ≤ Upper.
type Bounder interface {
	// N returns the partition count per axis.
	N() int
	// MemoryBytes returns the footprint of the pre-computed tables.
	MemoryBytes() int
	// ApproxPoint fills dst with the point's approximate vector.
	ApproxPoint(p vec.Vector, dst []uint8) []uint8
	// ApproxWeight fills dst with the weight's approximate vector.
	ApproxWeight(w vec.Vector, dst []uint8) []uint8
	// Bounds returns the lower and upper score bounds of Equations 3
	// and 4 in one pass.
	Bounds(pa, wa []uint8) (lower, upper float64)
	// LowerColumn returns the lower-bound addends for weight cell j,
	// indexed by point cell: col[pc] = Grid[pc][j]. The scan algorithms
	// gather one column per dimension once per weight vector and then
	// evaluate bounds with tight, cache-resident indexed loads.
	LowerColumn(j uint8) []float64
	// UpperColumn returns the upper-bound addends for weight cell j:
	// col[pc] = Grid[pc+1][j+1].
	UpperColumn(j uint8) []float64
}

// Grid is an equal-width Grid-index over a point value range [0, RangeP)
// and the weight range [0, RangeW).
type Grid struct {
	n      int     // number of partitions per axis
	rangeP float64 // point attribute range r_p
	rangeW float64 // weight range r_w (1 for simplex weights)
	// table is the flattened (n+1)×(n+1) boundary-product table.
	table []float64
	// loCols and upCols are column-major views of the table used by the
	// scan hot loops: loCols[j][pc] = table[pc][j] and
	// upCols[j][pc] = table[pc+1][j+1], each n entries long.
	loCols [][]float64
	upCols [][]float64
	// alphaP, alphaW are the n+1 partition boundaries per axis.
	alphaP []float64
	alphaW []float64
}

// New builds an n-partition Grid-index for point attributes in [0, rangeP)
// and weights in [0, rangeW). It panics on invalid parameters — grid shape
// is program configuration, not user input.
func New(n int, rangeP, rangeW float64) *Grid {
	if n < 1 || n > MaxPartitions {
		panic(fmt.Sprintf("grid: partitions %d outside [1, %d]", n, MaxPartitions))
	}
	if rangeP <= 0 || rangeW <= 0 {
		panic(fmt.Sprintf("grid: non-positive range (%v, %v)", rangeP, rangeW))
	}
	g := &Grid{
		n:      n,
		rangeP: rangeP,
		rangeW: rangeW,
		table:  make([]float64, (n+1)*(n+1)),
		alphaP: make([]float64, n+1),
		alphaW: make([]float64, n+1),
	}
	for i := 0; i <= n; i++ {
		g.alphaP[i] = float64(i) * rangeP / float64(n)
		g.alphaW[i] = float64(i) * rangeW / float64(n)
	}
	for i := 0; i <= n; i++ {
		row := g.table[i*(n+1):]
		for j := 0; j <= n; j++ {
			row[j] = g.alphaP[i] * g.alphaW[j]
		}
	}
	g.loCols, g.upCols = buildColumns(g.table, n)
	return g
}

// Table returns the flattened (n+1)×(n+1) boundary-product table — the
// persist layer stores it verbatim so a load never recomputes it. The
// slice is the grid's own storage; callers must not modify it.
func (g *Grid) Table() []float64 { return g.table }

// FromTable rebuilds a Grid around a stored boundary-product table,
// which may alias mapped memory and is adopted without copying. Every
// entry is verified against the recomputation α_p[i]·α_w[j] — the same
// IEEE expressions New evaluates, so a table written by Table() always
// passes and a corrupted one never does. Only the column views (a few
// KiB) are rebuilt on the heap. Returns an error rather than panicking:
// the table comes from a file, not program configuration.
func FromTable(n int, rangeP, rangeW float64, table []float64) (*Grid, error) {
	if n < 1 || n > MaxPartitions {
		return nil, fmt.Errorf("grid: partitions %d outside [1, %d]", n, MaxPartitions)
	}
	if !(rangeP > 0) || !(rangeW > 0) {
		return nil, fmt.Errorf("grid: non-positive range (%v, %v)", rangeP, rangeW)
	}
	if len(table) != (n+1)*(n+1) {
		return nil, fmt.Errorf("grid: table has %d entries, want %d", len(table), (n+1)*(n+1))
	}
	g := &Grid{
		n:      n,
		rangeP: rangeP,
		rangeW: rangeW,
		table:  table,
		alphaP: make([]float64, n+1),
		alphaW: make([]float64, n+1),
	}
	for i := 0; i <= n; i++ {
		g.alphaP[i] = float64(i) * rangeP / float64(n)
		g.alphaW[i] = float64(i) * rangeW / float64(n)
	}
	for i := 0; i <= n; i++ {
		row := table[i*(n+1):]
		for j := 0; j <= n; j++ {
			if want := g.alphaP[i] * g.alphaW[j]; row[j] != want {
				return nil, fmt.Errorf("grid: table[%d][%d] = %v, want %v", i, j, row[j], want)
			}
		}
	}
	g.loCols, g.upCols = buildColumns(g.table, n)
	return g, nil
}

// buildColumns transposes the boundary table into the per-weight-cell
// column slices served by LowerColumn and UpperColumn.
func buildColumns(table []float64, n int) (lo, up [][]float64) {
	stride := n + 1
	lo = make([][]float64, n)
	up = make([][]float64, n)
	for j := 0; j < n; j++ {
		l := make([]float64, n)
		u := make([]float64, n)
		for pc := 0; pc < n; pc++ {
			l[pc] = table[pc*stride+j]
			u[pc] = table[(pc+1)*stride+j+1]
		}
		lo[j] = l
		up[j] = u
	}
	return lo, up
}

// N returns the number of partitions per axis.
func (g *Grid) N() int { return g.n }

// RangeP returns the point attribute range.
func (g *Grid) RangeP() float64 { return g.rangeP }

// RangeW returns the weight range.
func (g *Grid) RangeW() float64 { return g.rangeW }

// MemoryBytes returns the size of the boundary-product table, the memory
// cost discussed at the end of Section 5.3 (n=32 → below 8 KiB + bounds).
func (g *Grid) MemoryBytes() int {
	return 8 * (len(g.table) + 2*g.n*g.n + len(g.alphaP) + len(g.alphaW))
}

// At returns Grid[i][j] = α_p[i]·α_w[j].
func (g *Grid) At(i, j int) float64 { return g.table[i*(g.n+1)+j] }

// CellW returns the partition index of a weight value.
func (g *Grid) CellW(x float64) uint8 { return cell(x, g.rangeW, g.n) }

// cell returns the partition index of value x on an axis [0, r) with n
// partitions: ⌊x·n/r⌋ clamped into [0, n-1], so x = r and small
// floating-point excursions land in the last cell.
func cell(x, r float64, n int) uint8 {
	if x <= 0 {
		return 0
	}
	c := int(x * float64(n) / r)
	if c >= n {
		c = n - 1
	}
	return uint8(c)
}

// ApproxPoint fills dst with the approximate vector p^(a) of a point.
func (g *Grid) ApproxPoint(p vec.Vector, dst []uint8) []uint8 {
	if len(dst) != len(p) {
		panic(fmt.Sprintf("grid: approx buffer length %d, want %d", len(dst), len(p)))
	}
	for i, x := range p {
		dst[i] = cell(x, g.rangeP, g.n)
	}
	return dst
}

// ApproxWeight fills dst with the approximate vector w^(a) of a weight.
func (g *Grid) ApproxWeight(w vec.Vector, dst []uint8) []uint8 {
	if len(dst) != len(w) {
		panic(fmt.Sprintf("grid: approx buffer length %d, want %d", len(dst), len(w)))
	}
	for i, x := range w {
		dst[i] = g.CellW(x)
	}
	return dst
}

// LowerColumn returns the lower-bound addends for weight cell j.
// The returned slice is the grid's own storage; callers must not modify it.
func (g *Grid) LowerColumn(j uint8) []float64 { return g.loCols[j] }

// UpperColumn returns the upper-bound addends for weight cell j.
func (g *Grid) UpperColumn(j uint8) []float64 { return g.upCols[j] }

// Bounds returns both bounds in one pass.
func (g *Grid) Bounds(pa, wa []uint8) (lower, upper float64) {
	stride := g.n + 1
	for i, pi := range pa {
		base := int(pi)*stride + int(wa[i])
		lower += g.table[base]
		upper += g.table[base+stride+1]
	}
	return lower, upper
}

// Index pairs a Bounder with the pre-computed approximate vectors of a
// data set (P^(A) or W^(A) of the paper), one byte per cell.
type Index struct {
	grid Bounder
	dim  int
	// approx holds count×dim cells contiguously, one byte per cell.
	approx []uint8
}

// NewPointIndex pre-computes P^(A) for a point set, using every CPU for
// large sets (this is the cold-start cost of a server boot).
func NewPointIndex(g Bounder, points []vec.Vector) *Index {
	return newIndex(g, points, true, 0)
}

// NewWeightIndex pre-computes W^(A) for a weight set, using every CPU
// for large sets.
func NewWeightIndex(g Bounder, weights []vec.Vector) *Index {
	return newIndex(g, weights, false, 0)
}

// parallelRowThreshold is the cell count below which row computation
// stays serial: tiny sets finish before goroutines would even start.
const parallelRowThreshold = 1 << 14

func newIndex(g Bounder, data []vec.Vector, isPoint bool, workers int) *Index {
	if len(data) == 0 {
		panic("grid: empty data set")
	}
	dim := len(data[0])
	// Validate up front so the fill workers cannot panic off-goroutine.
	for i, v := range data {
		if len(v) != dim {
			panic(fmt.Sprintf("grid: vector %d has dimension %d, want %d", i, len(v), dim))
		}
	}
	ix := &Index{grid: g, dim: dim, approx: make([]uint8, len(data)*dim)}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(data) {
		workers = len(data)
	}
	if workers <= 1 || len(ix.approx) < parallelRowThreshold {
		ix.fillRows(data, isPoint, 0, len(data))
		return ix
	}
	// Static contiguous shards: each row is independent and written to a
	// disjoint region, so the result is identical for any worker count.
	var wg sync.WaitGroup
	per := (len(data) + workers - 1) / workers
	for start := 0; start < len(data); start += per {
		end := start + per
		if end > len(data) {
			end = len(data)
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			ix.fillRows(data, isPoint, start, end)
		}(start, end)
	}
	wg.Wait()
	return ix
}

// fillRows computes the approximate vectors of rows [start, end).
func (ix *Index) fillRows(data []vec.Vector, isPoint bool, start, end int) {
	for i := start; i < end; i++ {
		row := ix.approx[i*ix.dim : (i+1)*ix.dim]
		if isPoint {
			ix.grid.ApproxPoint(data[i], row)
		} else {
			ix.grid.ApproxWeight(data[i], row)
		}
	}
}

// IndexFromCells builds an Index view over a stored cell array, which
// may alias mapped memory and is adopted without copying (so it must
// not be modified afterward). Shape errors are returned, not panicked:
// the cells come from a file.
func IndexFromCells(g Bounder, dim int, cells []uint8) (*Index, error) {
	if dim <= 0 || len(cells) == 0 || len(cells)%dim != 0 {
		return nil, fmt.Errorf("grid: cell store length %d not a positive multiple of dim %d", len(cells), dim)
	}
	return &Index{grid: g, dim: dim, approx: cells}, nil
}

// Grid returns the underlying Grid.
func (ix *Index) Grid() Bounder { return ix.grid }

// Dim returns the dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Count returns the number of indexed vectors.
func (ix *Index) Count() int { return len(ix.approx) / ix.dim }

// Row returns the approximate vector of element i. The returned slice
// aliases the index storage and must not be modified.
func (ix *Index) Row(i int) []uint8 {
	return ix.approx[i*ix.dim : (i+1)*ix.dim]
}

// Cells returns the flat cell store (Count()·Dim() bytes, row-major). The
// scan hot loops slice it directly; callers must not modify it.
func (ix *Index) Cells() []uint8 { return ix.approx }
