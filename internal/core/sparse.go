package core

import (
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"

	"harmony/internal/text"
)

// Sparse candidate-pair matching: instead of scoring every [source, target]
// pair (the dense O(n·m) MATCH the paper prices at 10.2 s for ~10^6 pairs),
// the engine indexes the target elements' token keys, retrieves a bounded
// candidate set per source element, and runs the voters
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

// The target index holds five token families, each in its own posting
// table keyed by the family's compiled form, so no key is ever built as
// a string. Four depend on the target profile alone and are compiled
// once per profile, on its first sparse match (profileKeys); the doc
// family depends on the pairing's joint vocabulary and is indexed per
// pairing (buildSparseIndex):
//
//   - acronym: the acronym of a multi-token name (finds DTG for
//     Date_Time_Group);
//   - doc: the pair-local term IDs of an element's top TF-IDF
//     documentation terms;
//   - name: interned name-token IDs (ElementView.name);
//   - prefix: the first 4 bytes of name tokens of at least 5 bytes,
//     packed big-endian into a uint32 (stem drift);
//   - raw: the raw delimiter-stripped name (finds Date_Time_Group for
//     DTG).
//
// Separate tables keep the families apart: a name token "a" and an
// acronym "a" are different evidence.
//
// Retrieval adds a target's weights in one fixed key order, because
// float addition is not associative and the order is part of every
// score: the families in the order listed, and within a family by key
// text. Name tokens are sorted by their text per element; packed
// prefixes compare as integers in text order; pair-local doc IDs ascend
// with the term. This is the sorted order of the family-prefixed string
// keys ("a:dtg", "d:date", "n:date", …) of the reference kernel
// (kernel_ref_test.go), which FuzzSparseCandidates and
// TestSparseKernelMatchesReference hold the index to.

// maxDocTerms bounds how many top-weight documentation terms per element
// enter the index and the query: documentation is long-tailed and the tail
// carries little retrieval signal.
const maxDocTerms = 8

// prefixMinLen is the minimum token length before a prefix posting is
// added; shorter tokens are their own prefix.
const prefixMinLen = 5

// maxAcronymLen bounds the acronym families: a raw name is an acronym
// form only at 2 to 8 bytes, and the crossed families meet only on equal
// strings, so a token acronym outside that range can never be found and
// is not indexed or queried either.
const maxAcronymLen = 8

// Retrieval weights per token family. Names dominate (they carry most
// matchable signal), acronym hits are near-certain evidence when present,
// documentation refines, prefixes merely rescue stem drift.
const (
	weightName    = 2.0
	weightDoc     = 1.2
	weightAcronym = 3.0
	weightPrefix  = 0.5
)

// acronymKeys returns v's token acronym and raw name as keys of the
// acronym families, "" where v has none.
func acronymKeys(v *ElementView) (acronym, raw string) {
	if len(v.NameTokens) >= 2 && acronymKey(v.acronym) {
		acronym = v.acronym
	}
	if acronymKey(v.RawAcronym) {
		raw = v.RawAcronym
	}
	return acronym, raw
}

// acronymKey reports whether s can be a key of the acronym families.
func acronymKey(s string) bool { return len(s) >= 2 && len(s) <= maxAcronymLen }

// appendNameKeys appends v's name keys (its distinct token IDs, by token
// text) to name and its distinct prefix keys (ascending) to prefix. toks
// is scratch.
func appendNameKeys(v *ElementView, toks []string, name, prefix []uint32) ([]string, []uint32, []uint32) {
	// The distinct tokens in first-occurrence order pair up with the
	// distinct IDs of v.name; an insertion sort by text carries the IDs
	// along (names have a handful of tokens).
	toks, lo := toks[:0], len(name)
	for _, t := range v.NameTokens {
		if !slices.Contains(toks, t) {
			toks = append(toks, t)
		}
	}
	name = append(name, v.name.IDs...)
	ids := name[lo:]
	for a := 1; a < len(toks); a++ {
		for b := a; b > 0 && toks[b] < toks[b-1]; b-- {
			toks[b], toks[b-1] = toks[b-1], toks[b]
			ids[b], ids[b-1] = ids[b-1], ids[b]
		}
	}
	// Prefixes of tokens in text order are in order themselves; only
	// neighbours can repeat.
	lo = len(prefix)
	for _, t := range toks {
		if len(t) < prefixMinLen {
			continue
		}
		p := uint32(t[0])<<24 | uint32(t[1])<<16 | uint32(t[2])<<8 | uint32(t[3])
		if n := len(prefix); n == lo || prefix[n-1] != p {
			prefix = append(prefix, p)
		}
	}
	return toks, name, prefix
}

// topDocTerms appends to dst the pair-local IDs of doc's maxDocTerms
// heaviest terms (ties to the lower term, which has the lower ID) in
// ascending ID order. The entries arrive in ascending ID order, so a
// later entry of equal weight always ranks below the kept ones.
func topDocTerms(doc text.Vector, dst []int32) []int32 {
	type entry struct {
		id int32
		w  float64
	}
	var top [maxDocTerms]entry // by rank
	n := 0
	doc.ForEach(func(_ string, id int32, w float64) {
		if n == maxDocTerms && w <= top[n-1].w {
			return
		}
		if n < maxDocTerms {
			n++
		}
		k := n - 1
		for ; k > 0 && top[k-1].w < w; k-- {
			top[k] = top[k-1]
		}
		top[k] = entry{id, w}
	})
	lo := len(dst)
	for _, e := range top[:n] {
		dst = append(dst, e.id)
	}
	slices.Sort(dst[lo:])
	return dst
}

// profileKeys are a compiled profile's pairing-independent retrieval
// keys: every element's name and prefix keys, and the postings of the
// four families that depend on the profile alone, with its elements as
// targets (each list ascending). The doc family depends on the
// pairing's joint vocabulary and is indexed per pairing
// (buildSparseIndex).
type profileKeys struct {
	// Element e's name keys are name[nameAt[e]:nameAt[e+1]], its prefix
	// keys prefix[prefixAt[e]:prefixAt[e+1]].
	nameAt, prefixAt []int32
	name, prefix     []uint32

	byAcronym, byRaw map[string][]int32
	byName, byPrefix map[uint32][]int32
}

// names returns element e's name keys.
func (k *profileKeys) names(e int) []uint32 { return k.name[k.nameAt[e]:k.nameAt[e+1]] }

// prefixes returns element e's prefix keys.
func (k *profileKeys) prefixes(e int) []uint32 { return k.prefix[k.prefixAt[e]:k.prefixAt[e+1]] }

// buildProfileKeys compiles the retrieval keys of p. Target acronyms go
// into the acronym family and raw names into the raw family; a query
// crosses them (retrieve).
func buildProfileKeys(p *CompiledProfile) *profileKeys {
	n := len(p.views)
	k := &profileKeys{
		nameAt:    make([]int32, n+1),
		prefixAt:  make([]int32, n+1),
		byAcronym: make(map[string][]int32),
		byRaw:     make(map[string][]int32),
		byName:    make(map[uint32][]int32, n),
		byPrefix:  make(map[uint32][]int32, n),
	}
	var toks []string
	for e := range p.views {
		v, t := &p.views[e], int32(e)
		toks, k.name, k.prefix = appendNameKeys(v, toks, k.name, k.prefix)
		k.nameAt[e+1], k.prefixAt[e+1] = int32(len(k.name)), int32(len(k.prefix))
		a, r := acronymKeys(v)
		if a != "" {
			k.byAcronym[a] = append(k.byAcronym[a], t)
		}
		if r != "" {
			k.byRaw[r] = append(k.byRaw[r], t)
		}
		for _, id := range k.names(e) {
			k.byName[id] = append(k.byName[id], t)
		}
		for _, x := range k.prefixes(e) {
			k.byPrefix[x] = append(k.byPrefix[x], t)
		}
	}
	return k
}

// sparseIndex is a pairing's inverted index over the target elements:
// the target profile's postings and this pairing's doc family, in
// compressed form with the pair-local term IDs as slots: the targets of
// term s are docIDs[docStart[s]:docStart[s+1]], ascending.
type sparseIndex struct {
	cols     int
	keys     *profileKeys
	docStart []int32
	docIDs   []int32
}

// buildSparseIndex indexes the target side dv of a pairing.
func buildSparseIndex(dv *SchemaView) *sparseIndex {
	type posting struct{ term, target int32 }
	var ents []posting
	var terms []int32
	slots := 0
	for j := 0; j < dv.Len(); j++ {
		if !dv.View(j).HasDoc {
			continue
		}
		terms = topDocTerms(dv.docs[j], terms[:0])
		for _, id := range terms {
			ents = append(ents, posting{id, int32(j)})
		}
		if m := len(terms); m > 0 {
			slots = max(slots, int(terms[m-1])+1)
		}
	}
	start := make([]int32, slots+1)
	for _, e := range ents {
		start[e.term+1]++
	}
	for s := 1; s <= slots; s++ {
		start[s] += start[s-1]
	}
	// start[s] is term s's fill cursor, which leaves it at the term's
	// end; shifting by one restores the starts.
	ids := make([]int32, len(ents))
	for _, e := range ents {
		ids[start[e.term]] = e.target
		start[e.term]++
	}
	copy(start[1:], start[:slots])
	start[0] = 0
	return &sparseIndex{cols: dv.Len(), keys: dv.profile.sparseKeys(), docStart: start, docIDs: ids}
}

// docTargets returns the targets indexed under pair-local term ID s.
func (ix *sparseIndex) docTargets(s int32) []int32 {
	if int(s) >= len(ix.docStart)-1 {
		return nil
	}
	return ix.docIDs[ix.docStart[s]:ix.docStart[s+1]]
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
// is sorted and deduplicated there, through the worker's bitmap over the
// target IDs, so the output does not depend on which worker finishes
// first. The upward expansion is serial.
func (e *Engine) sparseCandidates(sv, dv *SchemaView, scope []bool) (cands [][]int32, align [][]float64) {
	ix, src := buildSparseIndex(dv), sv.profile.sparseKeys()
	rows := sv.Len()
	sets := make([][]int32, rows)
	e.forEachChunk(rows, func(chunks iter.Seq2[int, int]) {
		r := retriever{ix: ix, src: src, acc: make([]float64, dv.Len())}
		for lo, hi := range chunks {
			for i := lo; i < hi; i++ {
				if scope == nil || scope[i] {
					sets[i] = r.retrieve(i, sv.View(i), sv.docs[i], e.sparseBudget)
				}
			}
		}
	})

	// A parent's ID is below its children's, so when row i's turn comes
	// its set still holds only what retrieval put there. parent[j] is
	// target j's parent ID (-1 at a root), read from one flat array
	// rather than through the element pointers. last[pj] is the row pj
	// was last promoted into: siblings promote the same parents, and
	// skipping the repeats keeps the rows short until they are
	// deduplicated.
	parent := make([]int32, dv.Len())
	last := make([]int32, dv.Len())
	for j := range parent {
		parent[j], last[j] = -1, -1
		if p := dv.View(j).El.Parent; p != nil {
			parent[j] = int32(p.ID)
		}
	}
	for i := 0; i < rows; i++ {
		a := sv.View(i).El
		if a.Parent == nil {
			continue
		}
		pi := int32(a.Parent.ID)
		if scope != nil && !scope[pi] {
			continue
		}
		for _, j := range sets[i] {
			if pj := parent[j]; pj >= 0 && last[pj] != pi {
				last[pj] = pi
				sets[pi] = append(sets[pi], pj)
			}
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
			seen := make([]uint64, (dv.Len()+63)/64)
			for lo, hi := range chunks {
				for _, i := range active[lo:hi] {
					align[i] = alignRow(sv.View(int(i)), dv, sets, scope, seen)
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
// parallel to the row, or nil for a leaf row. seen is the worker's
// all-zero bitmap over the target IDs; it is all zero again on return.
func alignRow(av *ElementView, dv *SchemaView, sets [][]int32, scope []bool, seen []uint64) []float64 {
	i := av.El.ID
	sets[i] = sortDistinct(sets[i], seen)
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

// sortDistinct rewrites row in place as its sorted, distinct targets:
// it marks each in the all-zero bitmap seen, then walks the marked words
// in order, clearing them.
func sortDistinct(row []int32, seen []uint64) []int32 {
	lo, hi := len(seen), -1
	for _, j := range row {
		w := int(j >> 6)
		seen[w] |= 1 << (j & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	row = row[:0]
	for w := lo; w <= hi; w++ {
		for x := seen[w]; x != 0; x &= x - 1 {
			row = append(row, int32(w<<6|bits.TrailingZeros64(x)))
		}
		seen[w] = 0
	}
	return row
}

// retriever is one worker's retrieval scratch: the per-target score
// accumulator (all zero between queries), the targets a query touched,
// and a query's doc keys.
type retriever struct {
	ix      *sparseIndex
	src     *profileKeys // the query side's keys
	acc     []float64
	touched []int32
	doc     []int32
}

// retrieve returns the budget-best targets of source element i (doc is
// its document vector) by accumulated family-weighted IDF over its keys;
// ties go to the lower target ID. The query crosses the acronym
// families, mirroring acronymOf's two directions: its raw name asks for
// targets with that token acronym, and its token acronym for targets
// with that raw name, so DTG retrieves Date_Time_Group and vice versa.
// The set is returned in no particular order: the alignment sorts each
// row.
func (r *retriever) retrieve(i int, v *ElementView, doc text.Vector, budget int) []int32 {
	r.accumulate(i, v, doc)
	kept := r.touched
	if len(kept) > budget {
		selectTop(kept, budget, r.acc)
		kept = kept[:budget]
	}
	out := slices.Clone(kept)
	for _, j := range r.touched {
		r.acc[j] = 0
	}
	r.touched = r.touched[:0]
	return out
}

// accumulate adds source element i's key weights into r.acc, family by
// family in retrieval order, and records each target it touches first.
func (r *retriever) accumulate(i int, v *ElementView, doc text.Vector) {
	t := r.ix.keys
	acronym, raw := acronymKeys(v)
	if raw != "" {
		r.add(t.byAcronym[raw], weightAcronym)
	}
	if v.HasDoc {
		r.doc = topDocTerms(doc, r.doc[:0])
		for _, id := range r.doc {
			r.add(r.ix.docTargets(id), weightDoc)
		}
	}
	for _, id := range r.src.names(i) {
		r.add(t.byName[id], weightName)
	}
	for _, p := range r.src.prefixes(i) {
		r.add(t.byPrefix[p], weightPrefix)
	}
	if acronym != "" {
		r.add(t.byRaw[acronym], weightAcronym)
	}
}

// add accumulates one key's weight, the inverse document frequency of
// its posting list over the target side times the family weight, into
// every target of the list.
func (r *retriever) add(post []int32, family float64) {
	if len(post) == 0 {
		return
	}
	w := math.Log(1 + float64(r.ix.cols)/float64(1+len(post)))
	w *= family
	for _, j := range post {
		if r.acc[j] == 0 {
			r.touched = append(r.touched, j)
		}
		r.acc[j] += w
	}
}

// selectTop reorders ids so that ids[:k] holds the k best by acc —
// higher score first, then lower ID — in no particular order (a
// quickselect; 0 < k < len(ids)). The order is total, so the kept set is
// exactly the first k of a full sort.
func selectTop(ids []int32, k int, acc []float64) {
	lo, hi := 0, len(ids)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		ids[mid], ids[hi] = ids[hi], ids[mid]
		pivot, store := ids[hi], lo
		ps := acc[pivot]
		for i := lo; i < hi; i++ {
			if j := ids[i]; acc[j] > ps || (acc[j] == ps && j < pivot) {
				ids[i], ids[store] = ids[store], j
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

// scoreSparse fills a sparse matrix: each row's stored candidate cells
// are scored as one sparse row, fanned out over the engine's workers by
// row. align holds the children-alignment totals sparseCandidates
// recorded; a container row hands its totals to the structure voter,
// which then does not align those pairs again. MatchCross has no
// recorded totals and passes nil, so its structure votes align directly.
func (e *Engine) scoreSparse(sv, dv *SchemaView, m *SparseMatrix, align [][]float64) {
	e.forEachRowChunk(sv, dv, m.rows, func(lo, hi int, sc *pairScratch) {
		for i := lo; i < hi; i++ {
			a, b := m.rowStart[i], m.rowStart[i+1]
			if a == b {
				continue
			}
			var totals []float64
			if align != nil {
				totals = align[i]
			}
			e.scoreRow(sc, i, m.colIdx[a:b], totals, m.scores[a:b])
		}
	})
}
