package core

import (
	"fmt"
	"math"
	"sort"

	"harmony/internal/schema"
	"harmony/internal/text"
)

// The reference sparse kernel: the serial, search-based form of candidate
// generation, voting and propagation that the production kernel must
// reproduce bit for bit. Retrieval reads one string-keyed postings map
// whose keys are each token prefixed by its family and are summed in
// sorted order, candidate sets are maps filled in row order, every cell
// is scored on its own by the frozen per-cell scorer (refScoreCell),
// whose structure voter re-aligns every container pair itself, and
// propagation reads every neighbour through ScoreMatrix.At and writes
// through Set.

// refMatchViews is MatchViews on the reference kernel for an engine whose
// sparse mode engages on the pair.
func refMatchViews(e *Engine, sv, dv *SchemaView) *SparseMatrix {
	sm := NewSparseMatrix(sv.Len(), dv.Len(), refSparseCandidates(sv, dv, e.sparseBudget, nil))
	refScoreSparse(e, sv, dv, sm)
	var m ScoreMatrix = sm
	for r := 0; r < e.propagationRounds; r++ {
		m = refPropagate(e.propagationAlpha, sv, dv, m)
	}
	return m.(*SparseMatrix)
}

// refMatchScoped is MatchScoped on the reference kernel (scoped runs do
// not propagate).
func refMatchScoped(e *Engine, sv, dv *SchemaView, elements []*schema.Element) *SparseMatrix {
	scope := make([]bool, sv.Len())
	for _, el := range elements {
		scope[el.ID] = true
	}
	sm := NewSparseMatrix(sv.Len(), dv.Len(), refSparseCandidates(sv, dv, e.sparseBudget, scope))
	refScoreSparse(e, sv, dv, sm)
	return sm
}

// refScoreSparse scores every stored cell of m with refScoreCell.
func refScoreSparse(e *Engine, sv, dv *SchemaView, m *SparseMatrix) {
	for i := 0; i < m.rows; i++ {
		for x := m.rowStart[i]; x < m.rowStart[i+1]; x++ {
			m.scores[x] = refScoreCell(e, sv, dv, i, int(m.colIdx[x]))
		}
	}
}

// refSparseCandidates is the serial candidate generator: retrieval, one
// round of upward expansion, and the downward children alignment
// (refGreedyAlignChildren), each over every row in ID order (a parent's
// ID is below its children's, so a row's set is complete before its own
// alignment runs).
func refSparseCandidates(sv, dv *SchemaView, budget int, scope []bool) [][]int32 {
	ix := refBuildSparseIndex(dv)
	rows, cols := sv.Len(), dv.Len()
	sets := make([]map[int32]struct{}, rows)

	acc := make([]float64, cols)
	var touched []int32
	var keys []string
	for i := 0; i < rows; i++ {
		if scope != nil && !scope[i] {
			continue
		}
		touched, keys = refAccumulate(ix, sv.View(i), sv.docs[i], acc, touched, keys)
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
			refGreedyAlignChildren(av, bv, func(ci, cj int, _ float64) {
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

// The reference retrieval index: one string-keyed postings map over
// every token family, each key its family prefix plus the token.
const (
	refKeyName    = "n:" // normalized name tokens
	refKeyPrefix  = "p:" // 4-byte prefixes of longer name tokens
	refKeyDoc     = "d:" // top TF-IDF documentation terms
	refKeyAcronym = "a:" // acronym of a multi-token name
	refKeyRaw     = "r:" // raw delimiter-stripped name
)

// refSparseIndex is the string-keyed inverted index over target-element
// tokens.
type refSparseIndex struct {
	postings map[string][]int32
	cols     int
}

// idf returns the inverse-document-frequency weight of a posting key.
func (ix *refSparseIndex) idf(key string) float64 {
	df := len(ix.postings[key])
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.cols)/float64(1+df))
}

// refBuildSparseIndex indexes every target element under its sorted,
// deduplicated string keys, in ascending target order.
func refBuildSparseIndex(dv *SchemaView) *refSparseIndex {
	ix := &refSparseIndex{postings: make(map[string][]int32), cols: dv.Len()}
	var keys []string
	for j := 0; j < dv.Len(); j++ {
		keys = refElementKeys(dv.View(j), dv.docs[j], keys[:0], false)
		sort.Strings(keys)
		prev := ""
		for _, k := range keys {
			if k == prev {
				continue
			}
			prev = k
			ix.postings[k] = append(ix.postings[k], int32(j))
		}
	}
	return ix
}

// refElementKeys appends every posting key of one element view: name
// tokens, 4-byte prefixes of name tokens of at least 5 bytes, the top
// documentation terms, and the two acronym forms, crossed on the query
// side (a query's token acronym asks for raw names, its raw name for
// token acronyms).
func refElementKeys(v *ElementView, doc text.Vector, dst []string, query bool) []string {
	for _, t := range v.NameTokens {
		dst = append(dst, refKeyName+t)
		if len(t) >= 5 {
			dst = append(dst, refKeyPrefix+t[:4])
		}
	}
	if v.HasDoc {
		dst = append(dst, refTopDocTerms(doc, maxDocTerms)...)
	}
	acrKey, rawKey := refKeyAcronym, refKeyRaw
	if query {
		acrKey, rawKey = refKeyRaw, refKeyAcronym
	}
	if len(v.NameTokens) >= 2 {
		dst = append(dst, acrKey+v.acronym)
	}
	if n := len(v.RawAcronym); n >= 2 && n <= 8 {
		dst = append(dst, rawKey+v.RawAcronym)
	}
	return dst
}

// refTopDocTerms returns the prefixed top-k terms of a TF-IDF vector by
// weight, ties to the lower term.
func refTopDocTerms(v text.Vector, k int) []string {
	type tw struct {
		term   string
		weight float64
	}
	terms := make([]tw, 0, v.Len())
	v.ForEach(func(term string, _ int32, weight float64) {
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
		out[i] = refKeyDoc + t.term
	}
	return out
}

// refAccumulate adds one query element's key weights (doc is its
// document vector) into acc over its sorted, deduplicated string keys,
// appending each target it touches first to touched. keys is scratch.
func refAccumulate(ix *refSparseIndex, v *ElementView, doc text.Vector, acc []float64, touched []int32, keys []string) ([]int32, []string) {
	keys = refElementKeys(v, doc, keys[:0], true)
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
		default:
			w *= weightAcronym
		}
		for _, j := range post {
			if acc[j] == 0 {
				touched = append(touched, j)
			}
			acc[j] += w
		}
	}
	return touched, keys
}

// refPropagate is one serial propagation round over the ScoreMatrix
// contract: every neighbour is read through At and every cell written
// through Set.
func refPropagate(alpha float64, sv, dv *SchemaView, m ScoreMatrix) ScoreMatrix {
	if alpha <= 0 {
		return m
	}
	next := m.Clone()
	var used []bool
	for i := 0; i < sv.Len(); i++ {
		a := sv.View(i).El
		if a.IsLeaf() {
			if a.Parent == nil {
				continue
			}
			pi := a.Parent.ID
			m.ForRow(i, func(j int, s float64) bool {
				b := dv.View(j).El
				if !b.IsLeaf() || b.Parent == nil {
					return true
				}
				parentScore := m.At(pi, b.Parent.ID)
				next.Set(i, j, clampScore((1-alpha)*s+alpha*parentScore))
				return true
			})
			continue
		}
		m.ForRow(i, func(j int, s float64) bool {
			b := dv.View(j).El
			if b.IsLeaf() {
				return true
			}
			if n := len(b.Children); cap(used) < n {
				used = make([]bool, n)
			}
			agg := refChildrenAgreement(a, b, m, used[:len(b.Children)])
			next.Set(i, j, clampScore((1-alpha)*s+alpha*agg))
			return true
		})
	}
	return next
}

// refChildrenAgreement is the greedy one-to-one children alignment under
// the matrix scores, scanning b's children in order so that equal scores
// go to the lowest child index.
func refChildrenAgreement(a, b *schema.Element, m ScoreMatrix, used []bool) float64 {
	ca, cb := a.Children, b.Children
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	for i := range used {
		used[i] = false
	}
	var total float64
	for _, x := range ca {
		best, bestJ := 0.0, -1
		for j, y := range cb {
			if used[j] {
				continue
			}
			if s := m.At(x.ID, y.ID); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 {
			used[bestJ] = true
			total += best
		}
	}
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	return total / float64(n)
}

// The frozen scoring primitives: greedyAlignChildren, pathVote and
// hybridNameSimFlat as they were before token signatures gated them,
// scanning every pair with text.SynonymOverlapIDs and text.JaccardIDs.
// TestGatedPrimitivesMatchFrozenReference pins the production forms to
// them bit for bit.

// refGreedyAlignChildren aligns every child pair by a full overlap scan.
func refGreedyAlignChildren(av, bv *ElementView, fn func(ci, cj int, sim float64)) {
	ca, cb := av.children, bv.children
	na, nb := len(ca), len(cb)
	if na > maxAlignChildren {
		na = maxAlignChildren
	}
	if nb > maxAlignChildren {
		nb = maxAlignChildren
	}
	var used [maxAlignChildren]bool
	for i := 0; i < na; i++ {
		best, bestJ := 0.0, -1
		x := ca[i]
		for j := 0; j < nb; j++ {
			if used[j] {
				continue
			}
			y := cb[j]
			if s := text.SynonymOverlapIDs(x.name.IDs, x.name.Masks, y.name.IDs, y.name.Masks); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 && best > 0 {
			used[bestJ] = true
			fn(i, bestJ, best)
		}
	}
}

// refPathVote scans both paths twice, once per metric.
func refPathVote(src, dst *ElementView) Vote {
	sim := 0.6*text.SynonymOverlapIDs(src.path.IDs, src.path.Masks, dst.path.IDs, dst.path.Masks) +
		0.4*text.JaccardIDs(src.path.IDs, dst.path.IDs)
	ev := float64(min(len(src.path.IDs), len(dst.path.IDs))) * 0.8
	return Vote{Ratio: sim, Evidence: ev}
}

// refHybridNameSimFlat scans both names twice for the token metrics.
func refHybridNameSimFlat(a, b *ElementView) float64 {
	best := text.SynonymOverlapIDs(a.name.IDs, a.name.Masks, b.name.IDs, b.name.Masks)
	if jac := text.JaccardIDs(a.name.IDs, b.name.IDs); jac > best {
		best = jac
	}
	if best >= 0.9 {
		return best
	}
	jw := text.JaroWinklerRunes(a.nameRunes, b.nameRunes)
	var dice float64
	switch {
	case a.JoinedName == b.JoinedName:
		dice = 1
	case len(a.trigrams) == 0 || len(b.trigrams) == 0:
		dice = 0
	default:
		dice = text.DiceSortedPacked(a.trigrams, b.trigrams)
	}
	if c := (jw + dice) / 2 * 0.9; c > best {
		best = c
	}
	return best
}

// The frozen per-cell scorer: the six voters' per-pair Vote bodies, the
// loop that ran them on one pair (voteAll) and the five mergers' Merge
// bodies as they were before scoring went a row at a time, with
// clampScore in its math.Nextafter form. The name memo is left out: the
// names are computed directly (refHybridNameSimFlat), which
// TestHybridSimCachedMatchesDirectCompute holds the memo to, and so are
// path votes and child alignments (refPathVote, refGreedyAlignChildren).
// Every structure vote aligns its container pair itself, as dense
// scoring, MatchCross and Explain did.

// refScoreCell scores pair (i, j) of the pairing (sv, dv) under e's
// voters and merger.
func refScoreCell(e *Engine, sv, dv *SchemaView, i, j int) float64 {
	votes, weights := refVoteAll(e, sv, dv, i, j)
	return refMerge(e.merger, votes, weights)
}

// refVoteAll runs every voter of e on pair (i, j), in voter order, and
// returns the votes with the voters' weights.
func refVoteAll(e *Engine, sv, dv *SchemaView, i, j int) ([]Vote, []float64) {
	votes := make([]Vote, len(e.voters))
	weights := make([]float64, len(e.voters))
	src, dst := sv.View(i), dv.View(j)
	for k, wv := range e.voters {
		votes[k] = refVote(wv.Voter, sv, dv, src, dst)
		weights[k] = wv.Weight
	}
	return votes, weights
}

// refVote is one voter's per-pair Vote body.
func refVote(v Voter, sv, dv *SchemaView, src, dst *ElementView) Vote {
	switch v.(type) {
	case NameVoter:
		if len(src.NameTokens) == 0 || len(dst.NameTokens) == 0 {
			return Abstain
		}
		sim := refHybridNameSimFlat(src, dst)
		ev := float64(min(len(src.name.IDs), len(dst.name.IDs)))
		ev += float64(min(len(src.JoinedName), len(dst.JoinedName))) / 12.0
		if src.JoinedName == dst.JoinedName && src.JoinedName != "" {
			ev += 2
		}
		return Vote{Ratio: sim, Evidence: ev}
	case DocVoter:
		if !src.HasDoc || !dst.HasDoc {
			return Abstain
		}
		a, b := sv.docs[src.El.ID], dv.docs[dst.El.ID]
		if a.IsZero() || b.IsZero() {
			return Abstain
		}
		cos := text.Cosine(a, b)
		ev := min(float64(min(src.DocTokenCount, dst.DocTokenCount))/2.0, 12)
		return Vote{Ratio: cos, Evidence: ev}
	case PathVoter:
		if len(src.path.IDs) == 0 || len(dst.path.IDs) == 0 {
			return Abstain
		}
		return refPathVote(src, dst)
	case TypeVoter:
		ta, tb := src.El.Type, dst.El.Type
		if ta == schema.TypeNone || tb == schema.TypeNone {
			return Abstain
		}
		switch {
		case ta == tb:
			return Vote{Ratio: 0.70, Evidence: 1}
		case typeClass(ta) == typeClass(tb):
			return Vote{Ratio: 0.60, Evidence: 0.8}
		default:
			return Vote{Ratio: 0.25, Evidence: 0.8}
		}
	case StructureVoter:
		a, b := src.El, dst.El
		switch {
		case !a.IsLeaf() && !b.IsLeaf():
			if len(src.children) == 0 || len(dst.children) == 0 {
				return Abstain
			}
			var total float64
			refGreedyAlignChildren(src, dst, func(_, _ int, sim float64) { total += sim })
			n := min(len(src.children), len(dst.children), maxAlignChildren)
			return Vote{Ratio: total / float64(n), Evidence: float64(n) * 0.9}
		case a.IsLeaf() && b.IsLeaf():
			if src.parent == nil || dst.parent == nil {
				return Abstain
			}
			return Vote{Ratio: refHybridNameSimFlat(src.parent, dst.parent), Evidence: 1.2}
		default:
			return Vote{Ratio: 0.35, Evidence: 0.6}
		}
	case AcronymVoter:
		if refAcronymOf(src, dst) || refAcronymOf(dst, src) {
			return Vote{Ratio: 0.95, Evidence: 2}
		}
		return Abstain
	}
	panic(fmt.Sprintf("no frozen body for voter %T", v))
}

// refAcronymOf reports whether a's raw name is the acronym of b's tokens.
func refAcronymOf(a, b *ElementView) bool {
	if len(b.NameTokens) < 2 {
		return false
	}
	raw := a.RawAcronym
	if len(raw) < 2 || len(raw) > 8 {
		return false
	}
	return raw == b.acronym
}

// refMerge is one merger's per-pair Merge body.
func refMerge(m Merger, votes []Vote, weights []float64) float64 {
	switch m.(type) {
	case EvidenceWeighted:
		var num, den float64
		for i, v := range votes {
			if v.IsAbstention() {
				continue
			}
			dec := 2*v.Ratio - 1
			if dec < 0 {
				dec = -dec
			}
			w := weights[i] * Saturate(v.Evidence) * (decisivenessFloor + (1-decisivenessFloor)*dec)
			num += w * refVoteScore(v)
			den += w
		}
		if den == 0 {
			return 0
		}
		consensus := refClampScore(num / den)
		return refClampScore(2 * consensus / (1 + consensus*consensus))
	case RatioOnly:
		var num, den float64
		for i, v := range votes {
			if v.IsAbstention() {
				continue
			}
			num += weights[i] * (2*v.Ratio - 1)
			den += weights[i]
		}
		if den == 0 {
			return 0
		}
		return refClampScore(num / den)
	case Average:
		var sum float64
		n := 0
		for _, v := range votes {
			if v.IsAbstention() {
				continue
			}
			sum += refVoteScore(v)
			n++
		}
		if n == 0 {
			return 0
		}
		return refClampScore(sum / float64(n))
	case Max:
		best := 0.0
		seen := false
		for _, v := range votes {
			if v.IsAbstention() {
				continue
			}
			s := refVoteScore(v)
			if !seen || s > best {
				best, seen = s, true
			}
		}
		if !seen {
			return 0
		}
		return refClampScore(best)
	case WeightedLinear:
		var num, den float64
		for i, v := range votes {
			if v.IsAbstention() {
				continue
			}
			num += weights[i] * refVoteScore(v)
			den += weights[i]
		}
		if den == 0 {
			return 0
		}
		return refClampScore(num / den)
	}
	panic(fmt.Sprintf("no frozen body for merger %T", m))
}

// refVoteScore is Vote.Score over refClampScore.
func refVoteScore(v Vote) float64 {
	return refClampScore((2*v.Ratio - 1) * Saturate(v.Evidence))
}

// refClampScore is clampScore with its bounds from math.Nextafter.
func refClampScore(s float64) float64 {
	if math.IsNaN(s) {
		return 0
	}
	if s >= 1 {
		return math.Nextafter(1, 0)
	}
	if s <= -1 {
		return math.Nextafter(-1, 0)
	}
	return s
}
