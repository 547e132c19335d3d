package core

import (
	"fmt"
	"sort"
	"sync"
)

// ScoreMatrix is the storage contract every match-matrix representation
// satisfies: the dense Matrix (every pair scored) and the SparseMatrix
// (only candidate pairs scored, everything else implicitly zero).
// Selection (SelectThreshold, SelectGreedyOneToOne, SelectStableMarriage),
// threshold suggestion, Histogram, filters and structural propagation are
// written once over ForRow, so the engine can swap representations without
// touching downstream analysis code.
type ScoreMatrix interface {
	// Rows returns the number of source elements.
	Rows() int
	// Cols returns the number of target elements.
	Cols() int
	// Pairs returns the number of scored cells (candidate
	// correspondences): rows*cols for a dense matrix, the stored entry
	// count for a sparse one.
	Pairs() int
	// At returns the score of pair (src, dst); 0 for cells a sparse
	// representation pruned.
	At(src, dst int) float64
	// Set stores the score of pair (src, dst). Sparse representations
	// ignore writes to pruned cells.
	Set(src, dst int, score float64)
	// ForRow calls f for every scored cell of row src in ascending dst
	// order, stopping early when f returns false. For a dense matrix this
	// visits every column; for a sparse one only the stored candidates.
	ForRow(src int, f func(dst int, score float64) bool)
	// Clone returns a copy whose scores can be mutated independently.
	Clone() ScoreMatrix
}

// Matrix is the dense match matrix produced by a match run: one score in
// (-1,+1) per [source element, target element] pair, indexed by element ID.
// For the paper's case study this is the 1378×784 matrix of roughly 10^6
// potential matches.
type Matrix struct {
	rows, cols int
	data       []float64
}

var _ ScoreMatrix = (*Matrix)(nil)

// matrixPool recycles dense matrix buffers across matches and jobs. On
// the paper's workload a single dense matrix is ~8 MB; pooling turns
// the per-match allocate+zero into a buffer reuse for every caller that
// Releases its results.
var matrixPool sync.Pool

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	m := newMatrixNoZero(rows, cols)
	clear(m.data)
	return m
}

// newMatrixNoZero returns a rows×cols matrix whose cells may hold stale
// scores from a recycled buffer. Callers must write every cell (the
// dense scorer does) or use NewMatrix.
func newMatrixNoZero(rows, cols int) *Matrix {
	n := rows * cols
	if v := matrixPool.Get(); v != nil {
		m := v.(*Matrix)
		if cap(m.data) >= n {
			m.rows, m.cols, m.data = rows, cols, m.data[:n]
			return m
		}
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, n)}
}

// Release returns the matrix buffer to the pool. The caller must not
// touch the matrix — or any slice previously returned by Row — after
// releasing it. Release is opt-in: callers that let results go to the
// garbage collector remain correct, just slower.
func (m *Matrix) Release() {
	if m == nil || m.data == nil {
		return
	}
	matrixPool.Put(m)
}

// Rows returns the number of source elements.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of target elements.
func (m *Matrix) Cols() int { return m.cols }

// Pairs returns the total number of cells (candidate correspondences).
func (m *Matrix) Pairs() int { return m.rows * m.cols }

// At returns the score of pair (src, dst).
func (m *Matrix) At(src, dst int) float64 { return m.data[src*m.cols+dst] }

// Set stores the score of pair (src, dst).
func (m *Matrix) Set(src, dst int, score float64) { m.data[src*m.cols+dst] = score }

// Row returns a read-only view of one source element's scores against every
// target element. The returned slice aliases the matrix.
func (m *Matrix) Row(src int) []float64 { return m.data[src*m.cols : (src+1)*m.cols] }

// ForRow implements ScoreMatrix: every column is a scored cell.
func (m *Matrix) ForRow(src int, f func(dst int, score float64) bool) {
	for j, s := range m.Row(src) {
		if !f(j, s) {
			return
		}
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() ScoreMatrix {
	c := newMatrixNoZero(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Correspondence is one scored candidate match between a source and a
// target element, identified by their element IDs.
type Correspondence struct {
	Src   int
	Dst   int
	Score float64
}

// String formats the correspondence for logs and debugging.
func (c Correspondence) String() string {
	return fmt.Sprintf("(%d,%d)=%.3f", c.Src, c.Dst, c.Score)
}

// sortCorrespondences orders by descending score, then ascending Src, Dst.
func sortCorrespondences(cs []Correspondence) {
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].Score != cs[b].Score {
			return cs[a].Score > cs[b].Score
		}
		if cs[a].Src != cs[b].Src {
			return cs[a].Src < cs[b].Src
		}
		return cs[a].Dst < cs[b].Dst
	})
}
