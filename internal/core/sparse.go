package core

import (
	"math"
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

// Row materializes one source element's scores against every target as a
// fresh dense slice (pruned cells are 0). Unlike the dense Matrix, the
// result does not alias internal storage; prefer ForRow on hot paths.
func (m *SparseMatrix) Row(src int) []float64 {
	out := make([]float64, m.cols)
	for k := m.rowStart[src]; k < m.rowStart[src+1]; k++ {
		out[m.colIdx[k]] = m.scores[k]
	}
	return out
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

// Above returns every stored correspondence with score >= threshold,
// ordered by descending score (ties broken by source then target ID).
func (m *SparseMatrix) Above(threshold float64) []Correspondence {
	n := 0
	for _, s := range m.scores {
		if s >= threshold {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Correspondence, 0, n)
	for i := 0; i < m.rows; i++ {
		for k := m.rowStart[i]; k < m.rowStart[i+1]; k++ {
			if s := m.scores[k]; s >= threshold {
				out = append(out, Correspondence{Src: i, Dst: int(m.colIdx[k]), Score: s})
			}
		}
	}
	sortCorrespondences(out)
	return out
}

// TopKPerSource returns, for each source element, its best k stored
// targets with score >= threshold, ordered by descending score overall.
func (m *SparseMatrix) TopKPerSource(k int, threshold float64) []Correspondence {
	if k <= 0 {
		return nil
	}
	var out []Correspondence
	var buf []Correspondence
	for i := 0; i < m.rows; i++ {
		buf = buf[:0]
		for x := m.rowStart[i]; x < m.rowStart[i+1]; x++ {
			if s := m.scores[x]; s >= threshold {
				buf = append(buf, Correspondence{Src: i, Dst: int(m.colIdx[x]), Score: s})
			}
		}
		sortCorrespondences(buf)
		if len(buf) > k {
			buf = buf[:k]
		}
		out = append(out, buf...)
	}
	sortCorrespondences(out)
	return out
}

// BestPerSource returns each source element's single best stored target;
// sources with no stored cell at or above minScore are omitted.
func (m *SparseMatrix) BestPerSource(minScore float64) []Correspondence {
	var out []Correspondence
	for i := 0; i < m.rows; i++ {
		bestJ, bestS := -1, minScore
		for k := m.rowStart[i]; k < m.rowStart[i+1]; k++ {
			s := m.scores[k]
			if s > bestS || (bestJ == -1 && s >= minScore) {
				bestJ, bestS = int(m.colIdx[k]), s
			}
		}
		if bestJ >= 0 {
			out = append(out, Correspondence{Src: i, Dst: bestJ, Score: bestS})
		}
	}
	return out
}

// MatchedTargets returns the target IDs appearing in any stored cell with
// score >= threshold.
func (m *SparseMatrix) MatchedTargets(threshold float64) map[int]bool {
	out := make(map[int]bool)
	for k, s := range m.scores {
		if s >= threshold {
			out[int(m.colIdx[k])] = true
		}
	}
	return out
}

// MatchedSources returns the source IDs appearing in any stored cell with
// score >= threshold.
func (m *SparseMatrix) MatchedSources(threshold float64) map[int]bool {
	out := make(map[int]bool)
	for i := 0; i < m.rows; i++ {
		for k := m.rowStart[i]; k < m.rowStart[i+1]; k++ {
			if m.scores[k] >= threshold {
				out[i] = true
				break
			}
		}
	}
	return out
}

// Histogram buckets the stored scores into n equal-width bins over [-1, 1].
// Pruned cells are not counted: the histogram describes what was scored,
// and the bin totals sum to Pairs exactly as for the dense form.
func (m *SparseMatrix) Histogram(n int) []int {
	if n <= 0 {
		n = 20
	}
	counts := make([]int, n)
	for _, s := range m.scores {
		counts[histogramBin(s, n)]++
	}
	return counts
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

// sparseCandidates generates the bounded per-source candidate sets: token
// retrieval against the target index (budget-best by accumulated IDF
// weight) followed by one round of structural expansion, which gives every
// candidate pair's parents a candidate pair of their own. The expansion is
// what lets container rows score the containers their children point at —
// the structure voter's children alignment and the propagation passes both
// need those cells to exist.
func sparseCandidates(sv, dv *SchemaView, budget int) [][]int32 {
	return sparseCandidatesScoped(sv, dv, budget, nil)
}

// sparseCandidatesScoped is sparseCandidates restricted to the given source
// rows (nil means every row): retrieval runs only for in-scope rows and the
// structural expansion never promotes a row outside the scope, so a scoped
// run costs O(|scope|) retrievals, not O(rows). The scoped form is what
// incremental re-matching after a schema version bump uses: only the dirty
// elements retrieve candidates.
func sparseCandidatesScoped(sv, dv *SchemaView, budget int, scope []bool) [][]int32 {
	ix := buildSparseIndex(dv)
	rows, cols := sv.Len(), dv.Len()
	sets := make([]map[int32]struct{}, rows)

	acc := make([]float64, cols)
	var touched []int32
	var keys []string
	for i := 0; i < rows; i++ {
		if scope != nil && !scope[i] {
			continue
		}
		keys = elementKeys(sv.View(i), keys[:0], true)
		sort.Strings(keys)
		prev := ""
		for _, k := range keys {
			if k == prev {
				continue
			}
			prev = k
			post := ix.postings[k]
			if len(post) == 0 {
				continue
			}
			w := ix.idf(k)
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
					touched = append(touched, j)
				}
				acc[j] += w
			}
		}
		all := touched
		if len(touched) > budget {
			sort.Slice(touched, func(a, b int) bool {
				if acc[touched[a]] != acc[touched[b]] {
					return acc[touched[a]] > acc[touched[b]]
				}
				return touched[a] < touched[b]
			})
			touched = touched[:budget]
		}
		set := make(map[int32]struct{}, len(touched)+4)
		for _, j := range touched {
			set[j] = struct{}{}
		}
		sets[i] = set
		for _, j := range all {
			acc[j] = 0
		}
		touched = all[:0]
	}

	// Upward structural expansion: every candidate (i, j) promotes
	// (parent(i), parent(j)). Bounded by the number of distinct candidate
	// parents, so container rows grow by at most their subtree's retrieval
	// breadth. Scoped runs only promote in-scope parents: out-of-scope rows
	// must stay empty (their stored decisions are not being revisited).
	for i := 0; i < rows; i++ {
		a := sv.View(i).El
		if a.Parent == nil {
			continue
		}
		pi := a.Parent.ID
		if scope != nil && !scope[pi] {
			continue
		}
		for j := range sets[i] {
			b := dv.View(int(j)).El
			if b.Parent == nil {
				continue
			}
			if sets[pi] == nil {
				sets[pi] = make(map[int32]struct{}, 8)
			}
			sets[pi][int32(b.Parent.ID)] = struct{}{}
		}
	}

	// Downward structural expansion: for every candidate container pair,
	// the greedy children alignment (the same one the structure voter and
	// the propagation pass compute) enters the candidate set, so those
	// passes see the same child evidence sparse pruning would otherwise
	// hide. At most min(|children|) pairs per container pair.
	for i := 0; i < rows; i++ {
		av := sv.View(i)
		if len(av.El.Children) == 0 || len(sets[i]) == 0 {
			continue
		}
		cands := make([]int32, 0, len(sets[i]))
		for j := range sets[i] {
			cands = append(cands, j)
		}
		for _, j := range cands {
			bv := dv.View(int(j))
			if len(bv.El.Children) == 0 {
				continue
			}
			alignChildren(av, bv, sets, scope)
		}
	}

	out := make([][]int32, rows)
	for i, set := range sets {
		if len(set) == 0 {
			continue
		}
		lst := make([]int32, 0, len(set))
		for j := range set {
			lst = append(lst, j)
		}
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		out[i] = lst
	}
	return out
}

// alignChildren adds every pair of the structure voter's greedy children
// alignment (greedyAlignChildren, the same computation containerVote
// scores) to the source child's candidate set. Children outside a scoped
// run's row scope are skipped.
func alignChildren(av, bv *ElementView, sets []map[int32]struct{}, scope []bool) {
	greedyAlignChildren(av, bv, func(ci, cj int, _ float64) {
		x := av.El.Children[ci].ID
		if scope != nil && !scope[x] {
			return
		}
		if sets[x] == nil {
			sets[x] = make(map[int32]struct{}, 4)
		}
		sets[x][int32(bv.El.Children[cj].ID)] = struct{}{}
	})
}

// --- sparse scoring -------------------------------------------------------

// scoreSparse fills a sparse matrix: the voters run only on the stored
// candidate cells, fanned out over the engine's workers by row.
func (e *Engine) scoreSparse(sv, dv *SchemaView, m *SparseMatrix) {
	e.forEachRowChunk(m.rows, func(lo, hi int, votes []Vote, weights []float64, sc *pairScratch) {
		for i := lo; i < hi; i++ {
			srcView := sv.View(i)
			for x := m.rowStart[i]; x < m.rowStart[i+1]; x++ {
				e.voteAll(srcView, dv.View(int(m.colIdx[x])), votes, sc)
				m.scores[x] = e.merger.Merge(votes, weights)
			}
		}
	})
}
