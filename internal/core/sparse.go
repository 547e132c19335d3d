package core

import (
	"iter"
	"math"
	"slices"
	"sort"

	"harmony/internal/text"
)

// Sparse candidate-pair matching: instead of scoring every [source, target]
// pair (the dense O(n·m) MATCH the paper prices at 10.2 s for ~10^6 pairs),
// the engine builds a per-match inverted index over target-element tokens,
// retrieves a bounded candidate set per source element, and runs the voters
// only on candidate pairs. Retrieval-style pruning before pair scoring is
// the same move the corpus layer makes at schema granularity (BM25
// blocking) pushed down to element granularity, and — like LLMatch's and
// Schemora's retrieval stages — it preserves the high-confidence matches:
// a pair can only reach the confidence-filter operating point with strong
// name, documentation or acronym agreement, and all three leave token
// evidence the index can see.

// DefaultSparseBudget is the default per-source candidate budget of sparse
// scoring: how many target elements survive retrieval for each source
// element before structural expansion. Calibrated on the case-study
// workload (EXPERIMENTS.md, E12): at 64 the sparse F-measure tracks dense
// within the quality tolerance while scoring ~5 % of the pairs.
const DefaultSparseBudget = 64

// DefaultSparseCutoff is the minimum number of potential pairs (rows×cols)
// before sparse mode engages; smaller matches fall back to dense scoring,
// where exhaustive pair enumeration is both cheap and exactly what
// interactive review wants.
const DefaultSparseCutoff = 30000

// SparseMatrix is the sparse match matrix produced by sparse scoring: a
// CSR (compressed sparse row) structure holding scores for candidate pairs
// only. Pruned pairs read as 0 (complete uncertainty) and ignore writes.
// It satisfies the same ScoreMatrix contract as the dense Matrix, so
// selection, thresholding, filtering and propagation work unchanged.
type SparseMatrix struct {
	rows, cols int
	rowStart   []int   // len rows+1; row i occupies [rowStart[i], rowStart[i+1])
	colIdx     []int32 // ascending within each row
	scores     []float64
}

var _ ScoreMatrix = (*SparseMatrix)(nil)

// NewSparseMatrix builds a zero-scored sparse matrix from per-row candidate
// lists. Each candidates[i] must be sorted ascending and duplicate-free;
// rows beyond len(candidates) are empty.
func NewSparseMatrix(rows, cols int, candidates [][]int32) *SparseMatrix {
	m := &SparseMatrix{rows: rows, cols: cols, rowStart: make([]int, rows+1)}
	total := 0
	for i := 0; i < rows; i++ {
		m.rowStart[i] = total
		if i < len(candidates) {
			total += len(candidates[i])
		}
	}
	m.rowStart[rows] = total
	m.colIdx = make([]int32, 0, total)
	for i := 0; i < rows && i < len(candidates); i++ {
		m.colIdx = append(m.colIdx, candidates[i]...)
	}
	m.scores = make([]float64, total)
	return m
}

// Rows returns the number of source elements.
func (m *SparseMatrix) Rows() int { return m.rows }

// Cols returns the number of target elements.
func (m *SparseMatrix) Cols() int { return m.cols }

// Pairs returns the number of stored candidate cells.
func (m *SparseMatrix) Pairs() int { return len(m.scores) }

// find returns the storage index of cell (src, dst), or -1 when the pair
// was pruned.
func (m *SparseMatrix) find(src, dst int) int {
	lo, hi := m.rowStart[src], m.rowStart[src+1]
	row := m.colIdx[lo:hi]
	k := sort.Search(len(row), func(i int) bool { return row[i] >= int32(dst) })
	if k < len(row) && row[k] == int32(dst) {
		return lo + k
	}
	return -1
}

// At returns the score of pair (src, dst); pruned pairs read as 0.
func (m *SparseMatrix) At(src, dst int) float64 {
	if k := m.find(src, dst); k >= 0 {
		return m.scores[k]
	}
	return 0
}

// Set stores the score of pair (src, dst). Writes to pruned cells are
// ignored: the candidate structure is fixed at construction.
func (m *SparseMatrix) Set(src, dst int, score float64) {
	if k := m.find(src, dst); k >= 0 {
		m.scores[k] = score
	}
}

// ForRow calls f for every stored candidate cell of row src in ascending
// dst order, stopping early when f returns false.
func (m *SparseMatrix) ForRow(src int, f func(dst int, score float64) bool) {
	for k := m.rowStart[src]; k < m.rowStart[src+1]; k++ {
		if !f(int(m.colIdx[k]), m.scores[k]) {
			return
		}
	}
}

// Clone returns a copy with independent scores. The candidate structure is
// immutable after construction and therefore shared.
func (m *SparseMatrix) Clone() ScoreMatrix {
	c := &SparseMatrix{rows: m.rows, cols: m.cols, rowStart: m.rowStart, colIdx: m.colIdx}
	c.scores = make([]float64, len(m.scores))
	copy(c.scores, m.scores)
	return c
}

// --- candidate generation -------------------------------------------------

// Posting-key prefixes of the target-element inverted index. One postings
// map holds several token families; the prefix keeps them from colliding
// (a name token "a" and an acronym "a" are different evidence).
const (
	keyName    = "n:" // normalized name tokens
	keyPrefix  = "p:" // 4-char prefixes of longer name tokens (stem drift)
	keyDoc     = "d:" // top TF-IDF documentation terms
	keyAcronym = "a:" // acronym of a multi-token name (finds DTG for Date_Time_Group)
	keyRaw     = "r:" // raw delimiter-stripped name (finds Date_Time_Group for DTG)
)

// maxDocTerms bounds how many top-weight documentation terms per element
// enter the index and the query: documentation is long-tailed and the tail
// carries little retrieval signal.
const maxDocTerms = 8

// prefixMinLen is the minimum token length before a prefix posting is
// added; shorter tokens are their own prefix.
const prefixMinLen = 5

// sparseIndex is the per-match inverted index over target-element tokens.
type sparseIndex struct {
	postings map[string][]int32
	cols     int
}

// add appends target j to a key's posting list, deduplicating consecutive
// inserts (callers index one element at a time in ascending ID order).
func (ix *sparseIndex) add(key string, j int32) {
	lst := ix.postings[key]
	if n := len(lst); n > 0 && lst[n-1] == j {
		return
	}
	ix.postings[key] = append(lst, j)
}

// idf returns the inverse-document-frequency weight of a posting key over
// the target side, favoring rare tokens during retrieval just as TF-IDF
// does during doc-voter scoring.
func (ix *sparseIndex) idf(key string) float64 {
	df := len(ix.postings[key])
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.cols)/float64(1+df))
}

// elementKeys appends every posting key of one element view to dst: name
// tokens, prefixes of longer name tokens, top documentation terms, and the
// two acronym forms the acronym voter recognizes. The acronym families
// cross on the query side, mirroring acronymOf's two directions: a target
// is indexed under the acronym of its own tokens (keyAcronym) and its raw
// compressed name (keyRaw), while a query element asks for targets whose
// token acronym equals its raw name and targets whose raw name equals its
// token acronym — so DTG retrieves Date_Time_Group and vice versa.
func elementKeys(v *ElementView, dst []string, query bool) []string {
	for _, t := range v.NameTokens {
		dst = append(dst, keyName+t)
		if len(t) >= prefixMinLen {
			dst = append(dst, keyPrefix+t[:prefixMinLen-1])
		}
	}
	if v.HasDoc {
		dst = append(dst, topDocTerms(v.DocVector, maxDocTerms)...)
	}
	acrKey, rawKey := keyAcronym, keyRaw
	if query {
		acrKey, rawKey = keyRaw, keyAcronym
	}
	if len(v.NameTokens) >= 2 {
		dst = append(dst, acrKey+v.acronym)
	}
	if n := len(v.RawAcronym); n >= 2 && n <= 8 {
		dst = append(dst, rawKey+v.RawAcronym)
	}
	return dst
}

// topDocTerms returns the keyDoc-prefixed top-k terms of a TF-IDF vector
// by weight.
func topDocTerms(v text.Vector, k int) []string {
	type tw struct {
		term   string
		weight float64
	}
	terms := make([]tw, 0, v.Len())
	v.ForEach(func(term string, weight float64) {
		terms = append(terms, tw{term, weight})
	})
	sort.Slice(terms, func(a, b int) bool {
		if terms[a].weight != terms[b].weight {
			return terms[a].weight > terms[b].weight
		}
		return terms[a].term < terms[b].term
	})
	if len(terms) > k {
		terms = terms[:k]
	}
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = keyDoc + t.term
	}
	return out
}

// Retrieval weights per token family. Names dominate (they carry most
// matchable signal), acronym hits are near-certain evidence when present,
// documentation refines, prefixes merely rescue stem drift.
const (
	weightName    = 2.0
	weightDoc     = 1.2
	weightAcronym = 3.0
	weightPrefix  = 0.5
)

// buildSparseIndex indexes every target element of a preprocessed schema.
func buildSparseIndex(dv *SchemaView) *sparseIndex {
	ix := &sparseIndex{postings: make(map[string][]int32), cols: dv.Len()}
	var keys []string
	for j := 0; j < dv.Len(); j++ {
		keys = elementKeys(dv.View(j), keys[:0], false)
		sort.Strings(keys)
		prev := ""
		for _, k := range keys {
			if k == prev {
				continue
			}
			prev = k
			ix.add(k, int32(j))
		}
	}
	return ix
}

// sparseCandidates generates the bounded candidate sets of the given
// source rows (scope nil means every row) in three passes:
//
//   - token retrieval against the target index, keeping the budget-best
//     targets by accumulated IDF weight;
//   - one round of upward structural expansion: every retrieved pair
//     (i, j) promotes (parent(i), parent(j));
//   - downward structural expansion: every candidate container pair
//     admits the structure voter's greedy children alignment
//     (greedyAlignChildren), at most min(|children|) pairs per container
//     pair.
//
// The expansions let container rows score the containers their children
// point at, and give the structure voter's alignment and the propagation
// passes the child cells sparse pruning would otherwise hide.
//
// It returns each row's candidates, ascending, and, for every row of a
// container, each candidate's children-alignment total (parallel to the
// row, 0 where the target is a leaf). The structure voter scores
// container pairs from these totals (scoreSparse), so the alignment runs
// once per container pair.
//
// A scoped run (the incremental re-match after a schema version bump)
// retrieves only for in-scope rows, and neither expansion promotes a row
// outside the scope: out-of-scope rows stay empty, and the run costs
// O(|scope|) retrievals, not O(rows).
//
// Retrieval fans out over the engine's workers by row. The downward pass
// runs one tree depth at a time, fanned out over the rows of that depth:
// only a row's parent writes to its set, so the rows of one depth are
// independent, and a row's set is complete when its depth comes. Each row
// is sorted and deduplicated there, so the output does not depend on
// which worker finishes first. The upward expansion is serial.
func (e *Engine) sparseCandidates(sv, dv *SchemaView, scope []bool) (cands [][]int32, align [][]float64) {
	ix := buildSparseIndex(dv)
	rows := sv.Len()
	sets := make([][]int32, rows)
	e.forEachChunk(rows, func(chunks iter.Seq2[int, int]) {
		r := retriever{ix: ix, acc: make([]float64, dv.Len())}
		for lo, hi := range chunks {
			for i := lo; i < hi; i++ {
				if scope == nil || scope[i] {
					sets[i] = r.retrieve(sv.View(i), e.sparseBudget)
				}
			}
		}
	})

	// A parent's ID is below its children's, so when row i's turn comes
	// its set still holds only what retrieval put there. last[pj] is the
	// row pj was last promoted into: siblings promote the same parents,
	// and skipping the repeats keeps the rows short until they are
	// deduplicated.
	last := make([]int32, dv.Len())
	for j := range last {
		last[j] = -1
	}
	for i := 0; i < rows; i++ {
		a := sv.View(i).El
		if a.Parent == nil {
			continue
		}
		pi := a.Parent.ID
		if scope != nil && !scope[pi] {
			continue
		}
		for _, j := range sets[i] {
			b := dv.View(int(j)).El
			if b.Parent == nil || last[b.Parent.ID] == int32(pi) {
				continue
			}
			last[b.Parent.ID] = int32(pi)
			sets[pi] = append(sets[pi], int32(b.Parent.ID))
		}
	}

	align = make([][]float64, rows)
	var active []int32
	for _, level := range depthLevels(sv) {
		active = active[:0]
		for _, i := range level {
			if len(sets[i]) > 0 {
				active = append(active, i)
			}
		}
		e.forEachChunk(len(active), func(chunks iter.Seq2[int, int]) {
			for lo, hi := range chunks {
				for _, i := range active[lo:hi] {
					align[i] = alignRow(sv.View(int(i)), dv, sets, scope)
				}
			}
		})
	}
	return sets, align
}

// depthLevels groups the source rows by tree depth, shallowest first.
func depthLevels(sv *SchemaView) [][]int32 {
	var levels [][]int32
	for i := 0; i < sv.Len(); i++ {
		d := sv.View(i).El.Depth()
		for len(levels) < d {
			levels = append(levels, nil)
		}
		levels[d-1] = append(levels[d-1], int32(i))
	}
	return levels
}

// alignRow finalizes row av's candidate set (sorted, duplicate-free) and,
// when av is a container, admits the greedy children alignment of every
// candidate container into its children's sets (children outside a
// scoped run's scope are skipped). It returns the alignment totals,
// parallel to the row, or nil for a leaf row.
func alignRow(av *ElementView, dv *SchemaView, sets [][]int32, scope []bool) []float64 {
	i := av.El.ID
	slices.Sort(sets[i])
	sets[i] = slices.Compact(sets[i])
	if len(av.children) == 0 {
		return nil
	}
	totals := make([]float64, len(sets[i]))
	for k, j := range sets[i] {
		bv := dv.View(int(j))
		if len(bv.children) == 0 {
			continue
		}
		var total float64
		greedyAlignChildren(av, bv, func(ci, cj int, sim float64) {
			total += sim
			x := av.El.Children[ci].ID
			if scope == nil || scope[x] {
				sets[x] = append(sets[x], int32(bv.El.Children[cj].ID))
			}
		})
		totals[k] = total
	}
	return totals
}

// retriever is one worker's retrieval scratch: the per-target score
// accumulator (all zero between queries), the targets a query touched,
// and the query's posting keys.
type retriever struct {
	ix      *sparseIndex
	acc     []float64
	touched []int32
	keys    []string
}

// retrieve returns the budget-best targets of one source element by
// accumulated family-weighted IDF over its posting keys; ties go to the
// lower target ID. The set is returned in no particular order: the
// alignment sorts each row.
func (r *retriever) retrieve(v *ElementView, budget int) []int32 {
	acc := r.acc
	r.keys = elementKeys(v, r.keys[:0], true)
	sort.Strings(r.keys)
	prev := ""
	for _, k := range r.keys {
		if k == prev {
			continue
		}
		prev = k
		post := r.ix.postings[k]
		if len(post) == 0 {
			continue
		}
		w := r.ix.idf(k)
		switch k[0] {
		case 'n':
			w *= weightName
		case 'd':
			w *= weightDoc
		case 'p':
			w *= weightPrefix
		default: // acronym families
			w *= weightAcronym
		}
		for _, j := range post {
			if acc[j] == 0 {
				r.touched = append(r.touched, j)
			}
			acc[j] += w
		}
	}
	kept := r.touched
	if len(kept) > budget {
		selectTop(kept, budget, acc)
		kept = kept[:budget]
	}
	out := slices.Clone(kept)
	for _, j := range r.touched {
		acc[j] = 0
	}
	r.touched = r.touched[:0]
	return out
}

// selectTop reorders ids so that ids[:k] holds the k best by acc —
// higher score first, then lower ID — in no particular order (a
// quickselect; 0 < k < len(ids)). The order is total, so the kept set is
// exactly the first k of a full sort.
func selectTop(ids []int32, k int, acc []float64) {
	better := func(a, b int32) bool {
		return acc[a] > acc[b] || (acc[a] == acc[b] && a < b)
	}
	lo, hi := 0, len(ids)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		ids[mid], ids[hi] = ids[hi], ids[mid]
		pivot, store := ids[hi], lo
		for i := lo; i < hi; i++ {
			if better(ids[i], pivot) {
				ids[i], ids[store] = ids[store], ids[i]
				store++
			}
		}
		ids[store], ids[hi] = ids[hi], ids[store]
		switch {
		case store == k-1:
			return
		case store > k-1:
			hi = store - 1
		default:
			lo = store + 1
		}
	}
}

// --- sparse scoring -------------------------------------------------------

// scoreSparse fills a sparse matrix: the voters run only on the stored
// candidate cells, fanned out over the engine's workers by row. align
// holds the children-alignment totals sparseCandidates recorded; the
// worker's scratch hands each container pair's total to the structure
// voter, which then does not align the pair again. MatchCross has no
// recorded totals and passes nil, so its structure votes align directly.
func (e *Engine) scoreSparse(sv, dv *SchemaView, m *SparseMatrix, align [][]float64) {
	e.forEachRowChunk(m.rows, func(lo, hi int, votes []Vote, weights []float64, sc *pairScratch) {
		for i := lo; i < hi; i++ {
			srcView := sv.View(i)
			var totals []float64
			if align != nil {
				totals = align[i]
			}
			sc.aligned = totals != nil
			base := m.rowStart[i]
			for x := base; x < m.rowStart[i+1]; x++ {
				if totals != nil {
					sc.alignTotal = totals[x-base]
				}
				e.voteAll(srcView, dv.View(int(m.colIdx[x])), votes, sc)
				m.scores[x] = e.merger.Merge(votes, weights)
			}
		}
	})
}
