package core

import (
	"sort"

	"harmony/internal/schema"
	"harmony/internal/text"
)

// The reference sparse kernel: the serial, search-based form of candidate
// generation, voting and propagation that the production kernel must
// reproduce bit for bit. Candidate sets are maps filled in row order, the
// structure voter re-aligns every container pair itself (scoreSparse with
// no recorded alignment totals), and propagation reads every neighbour
// through ScoreMatrix.At and writes through Set.

// refMatchViews is MatchViews on the reference kernel for an engine whose
// sparse mode engages on the pair.
func refMatchViews(e *Engine, sv, dv *SchemaView) *SparseMatrix {
	sm := NewSparseMatrix(sv.Len(), dv.Len(), refSparseCandidates(sv, dv, e.sparseBudget, nil))
	e.scoreSparse(sv, dv, sm, nil)
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
	e.scoreSparse(sv, dv, sm, nil)
	return sm
}

// refSparseCandidates is the serial candidate generator: retrieval, one
// round of upward expansion, and the downward children alignment
// (refGreedyAlignChildren), each over every row in ID order (a parent's
// ID is below its children's, so a row's set is complete before its own
// alignment runs).
func refSparseCandidates(sv, dv *SchemaView, budget int, scope []bool) [][]int32 {
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
		keys = elementKeys(sv.View(i), sv.docs[i], keys[:0], true)
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
