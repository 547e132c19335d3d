package core

import (
	"fmt"
	"iter"

	"harmony/internal/schema"
)

// propagate runs one round of structural propagation and returns the
// blended matrix: container pair scores are blended with the average of
// their children's best mutual scores (childrenAgreement), and leaf pair
// scores with their parents' pair score.
//
// All reads come from the pre-round matrix and each row writes only its
// own cells of the new one, so the rows fan out over the engine's
// workers and the result does not depend on their order. Only cells the
// representation stores are visited, and cells are read and written by
// storage position: a sparse matrix is walked row by row and never
// searched. A pruned neighbour reads 0, as ScoreMatrix.At reads it.
func (e *Engine) propagate(sv, dv *SchemaView, m ScoreMatrix) ScoreMatrix {
	alpha := e.propagationAlpha
	if alpha <= 0 {
		return m
	}
	next := m.Clone()
	p := &propagation{
		alpha: alpha,
		in:    cellsOf(m),
		out:   cellsOf(next).scores,
		dv:    dv,
		dst:   newTargetTree(dv),
	}
	e.forEachChunk(sv.Len(), func(chunks iter.Seq2[int, int]) {
		w := p.worker()
		for lo, hi := range chunks {
			for i := lo; i < hi; i++ {
				w.row(sv.View(i).El)
			}
		}
	})
	return next
}

// cells is a match matrix's storage as propagation reads it: row i's
// stored cells are scores[lo:hi] of row(i), in ascending column order. A
// dense matrix stores every column, so a cell's column is its offset in
// the row; a sparse matrix stores its candidates, whose columns colIdx
// holds.
type cells struct {
	scores   []float64
	rowStart []int   // sparse only
	colIdx   []int32 // sparse only; nil for a dense matrix
	width    int     // number of columns
}

func cellsOf(m ScoreMatrix) cells {
	switch m := m.(type) {
	case *Matrix:
		return cells{scores: m.data, width: m.cols}
	case *SparseMatrix:
		return cells{scores: m.scores, rowStart: m.rowStart, colIdx: m.colIdx, width: m.cols}
	}
	panic(fmt.Sprintf("core: no storage view of %T", m))
}

// row returns the storage range of row i.
func (c *cells) row(i int) (lo, hi int) {
	if c.colIdx == nil {
		return i * c.width, (i + 1) * c.width
	}
	return c.rowStart[i], c.rowStart[i+1]
}

// col returns the column of storage cell k of a row starting at lo.
func (c *cells) col(k, lo int) int {
	if c.colIdx == nil {
		return k - lo
	}
	return int(c.colIdx[k])
}

// targetTree is the target schema's structure as flat arrays indexed by
// element ID: parent ID (-1 at roots), position among the parent's
// children, and whether the element is a leaf.
type targetTree struct {
	parent []int32
	pos    []int32
	leaf   []bool
}

func newTargetTree(dv *SchemaView) *targetTree {
	n := dv.Len()
	t := &targetTree{parent: make([]int32, n), pos: make([]int32, n), leaf: make([]bool, n)}
	for j := 0; j < n; j++ {
		b := dv.View(j).El
		t.parent[j] = -1
		if b.Parent != nil {
			t.parent[j] = int32(b.Parent.ID)
		}
		t.leaf[j] = b.IsLeaf()
		for jj, y := range b.Children {
			t.pos[y.ID] = int32(jj)
		}
	}
	return t
}

// propagation is one round's shared, read-only state.
type propagation struct {
	alpha float64
	in    cells     // the pre-round matrix
	out   []float64 // the new matrix's scores, same layout as in
	dv    *SchemaView
	dst   *targetTree
}

// propWorker is one worker's scratch for a propagation round. The
// column-indexed arrays are all zero (bestJ all -1) between rows.
type propWorker struct {
	*propagation
	scatter   []float64 // row `scattered` spread over its columns (sparse)
	scattered int

	// childrenAgreement state, indexed by target column.
	cand  []bool    // container candidate of the current row
	total []float64 // summed alignment of the candidate's children
	best  []float64 // the current source child's best score under the candidate
	bestJ []int32   // its child index under the candidate, -1 when none
	bestY []int32   // its column
	used  []bool    // target child already taken
	hit   []int32   // candidates the current source child reached
	taken []int32   // columns marked in used
}

func (p *propagation) worker() *propWorker {
	n := p.in.width
	w := &propWorker{
		propagation: p, scattered: -1,
		cand: make([]bool, n), total: make([]float64, n), best: make([]float64, n),
		bestJ: make([]int32, n), bestY: make([]int32, n), used: make([]bool, n),
	}
	for j := range w.bestJ {
		w.bestJ[j] = -1
	}
	if p.in.colIdx != nil {
		w.scatter = make([]float64, n)
	}
	return w
}

// row blends every stored cell of source element a's row: leaf pairs
// with their parents' pair score, container pairs with their children's
// agreement. Other cells keep their pre-round score.
func (w *propWorker) row(a *schema.Element) {
	alpha := w.alpha
	lo, hi := w.in.row(a.ID)
	if !a.IsLeaf() {
		w.childrenAgreement(a, lo, hi)
		return
	}
	if a.Parent == nil {
		return
	}
	parent := w.parentRow(a.Parent.ID)
	for k := lo; k < hi; k++ {
		j := w.in.col(k, lo)
		pj := w.dst.parent[j]
		if !w.dst.leaf[j] || pj < 0 {
			continue
		}
		w.out[k] = clampScore((1-alpha)*w.in.scores[k] + alpha*parent[pj])
	}
}

// parentRow returns row pi's scores indexed by column, pruned cells
// reading 0: the row itself for a dense matrix, a scatter of its stored
// cells for a sparse one. Sibling rows share a parent, so a scatter is
// rebuilt only when the parent changes.
func (w *propWorker) parentRow(pi int) []float64 {
	if w.in.colIdx == nil {
		lo, hi := w.in.row(pi)
		return w.in.scores[lo:hi]
	}
	if pi != w.scattered {
		if w.scattered >= 0 {
			lo, hi := w.in.row(w.scattered)
			for _, j := range w.in.colIdx[lo:hi] {
				w.scatter[j] = 0
			}
		}
		lo, hi := w.in.row(pi)
		for k := lo; k < hi; k++ {
			w.scatter[w.in.colIdx[k]] = w.in.scores[k]
		}
		w.scattered = pi
	}
	return w.scatter
}

// childrenAgreement blends the stored container × container cells
// [lo, hi) of container a's row with their children's agreement: the
// greedy one-to-one alignment quality of a's children and the target
// container's children under the pre-round scores, normalized over the
// smaller child set. Each child of a, in order, takes its best-scoring
// positive child of the target not yet taken; equal scores go to the
// lowest child index.
//
// The alignments of all the row's container candidates run together, in
// one walk over each child's stored row: a cell (x, y) competes for the
// candidate that is y's parent. So a child's row is read once per
// container row, not once per container pair, and a pruned pair (which
// reads 0 and can never be taken) is never visited.
func (w *propWorker) childrenAgreement(a *schema.Element, lo, hi int) {
	for k := lo; k < hi; k++ {
		if j := w.in.col(k, lo); !w.dst.leaf[j] {
			w.cand[j] = true
		}
	}
	for _, x := range a.Children {
		xlo, xhi := w.in.row(x.ID)
		for k := xlo; k < xhi; k++ {
			s := w.in.scores[k]
			if s <= 0 {
				continue
			}
			y := int32(w.in.col(k, xlo))
			p := w.dst.parent[y]
			if p < 0 || !w.cand[p] || w.used[y] {
				continue
			}
			jj := w.dst.pos[y]
			switch bj := w.bestJ[p]; {
			case bj < 0:
				w.hit = append(w.hit, p)
			case s < w.best[p] || s == w.best[p] && jj > bj:
				continue
			}
			w.best[p], w.bestJ[p], w.bestY[p] = s, jj, y
		}
		for _, p := range w.hit {
			w.used[w.bestY[p]] = true
			w.taken = append(w.taken, w.bestY[p])
			w.total[p] += w.best[p]
			w.best[p], w.bestJ[p] = 0, -1
		}
		w.hit = w.hit[:0]
	}
	alpha := w.alpha
	for k := lo; k < hi; k++ {
		j := w.in.col(k, lo)
		if !w.cand[j] {
			continue
		}
		n := min(len(a.Children), len(w.dv.View(j).El.Children))
		w.out[k] = clampScore((1-alpha)*w.in.scores[k] + alpha*(w.total[j]/float64(n)))
		w.cand[j], w.total[j] = false, 0
	}
	for _, y := range w.taken {
		w.used[y] = false
	}
	w.taken = w.taken[:0]
}
