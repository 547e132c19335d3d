package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

// assertSameSparse fails unless got has want's candidate structure and
// every stored score bit for bit.
func assertSameSparse(t *testing.T, label string, got ScoreMatrix, want *SparseMatrix) {
	t.Helper()
	sm, ok := got.(*SparseMatrix)
	if !ok {
		t.Fatalf("%s: got a %T, want a sparse matrix", label, got)
	}
	if sm.rows != want.rows || sm.cols != want.cols ||
		!slices.Equal(sm.rowStart, want.rowStart) || !slices.Equal(sm.colIdx, want.colIdx) {
		t.Fatalf("%s: candidate structure differs from the reference (%d vs %d stored cells)",
			label, sm.Pairs(), want.Pairs())
	}
	for i := 0; i < want.rows; i++ {
		for k := want.rowStart[i]; k < want.rowStart[i+1]; k++ {
			if math.Float64bits(sm.scores[k]) != math.Float64bits(want.scores[k]) {
				t.Fatalf("%s: cell (%d,%d) = %v, reference %v",
					label, i, want.colIdx[k], sm.scores[k], want.scores[k])
			}
		}
	}
}

// TestSparseKernelMatchesReference pins the sparse kernel (parallel
// candidate generation, alignment totals recorded once, row-walking
// parallel propagation) to the serial search-based reference, bit for
// bit, at one and at several workers.
func TestSparseKernelMatchesReference(t *testing.T) {
	type pair struct {
		name   string
		a, b   *schema.Schema
		budget int
	}
	small, smallB, _ := synth.Pair(11, 20, 18, 10, 6)
	pairs := []pair{{"pair-11", small, smallB, 16}}
	if !testing.Short() {
		for seed := int64(1); seed <= 3; seed++ {
			a, b, _ := synth.Pair(seed, 30, 25, 15, 6)
			pairs = append(pairs, pair{fmt.Sprintf("pair-%d", seed), a, b, DefaultSparseBudget})
		}
		sa, sb, _ := synth.CaseStudy(42)
		pairs = append(pairs, pair{"case-study", sa, sb, DefaultSparseBudget})
		// Two documented schemata of the match workload's generator,
		// relational against XML: they exercise the doc and acronym
		// families the synth.Pair inputs barely reach.
		rel, _ := synth.Custom("M01_REL", schema.FormatRelational, synth.StyleRelational, 100, 30, 10, 0)
		xml, _ := synth.Custom("M02_XML", schema.FormatXML, synth.StyleXML, 101, 36, 10, 0)
		pairs = append(pairs, pair{"custom-rel-xml", rel, xml, DefaultSparseBudget})
	}
	for _, p := range pairs {
		sv, dv := pairViews(p.a, p.b)
		want := refMatchViews(sparseTestEngine(p.budget), sv, dv)
		for _, workers := range []int{1, 4} {
			eng := sparseTestEngine(p.budget).WithOptions(WithWorkers(workers))
			assertSameSparse(t, fmt.Sprintf("%s at %d workers", p.name, workers), eng.MatchViews(sv, dv).Matrix, want)
		}
	}
}

// TestGatedPrimitivesMatchFrozenReference pins the signature-gated
// scoring primitives to their frozen pre-gate forms (kernel_ref_test.go),
// bit for bit: every element pair's path vote and hybrid name similarity,
// and every container pair's aligned (ci, cj, sim) sequence. It also
// checks that each container's packed child signatures are its
// children's name signatures, which exactness alone would not catch.
func TestGatedPrimitivesMatchFrozenReference(t *testing.T) {
	type pair struct {
		name string
		a, b *schema.Schema
	}
	var pairs []pair
	for seed := int64(1); seed <= 3; seed++ {
		a, b, _ := synth.Pair(seed, 30, 25, 15, 6)
		pairs = append(pairs, pair{fmt.Sprintf("pair-%d", seed), a, b})
	}
	if !testing.Short() {
		sa, sb, _ := synth.CaseStudy(42)
		pairs = append(pairs, pair{"case-study", sa, sb})
	}
	type aligned struct {
		ci, cj int
		sim    uint64
	}
	var got, want []aligned
	for _, p := range pairs {
		sv, dv := pairViews(p.a, p.b)
		containers := 0
		for i := 0; i < sv.Len(); i++ {
			a := sv.View(i)
			for k, c := range a.children {
				if a.childSigs[k] != c.name.Sig {
					t.Fatalf("%s row %d: childSigs[%d] is not the child's name signature", p.name, i, k)
				}
			}
			for j := 0; j < dv.Len(); j++ {
				b := dv.View(j)
				if g, w := pathVote(a, b), refPathVote(a, b); math.Float64bits(g.Ratio) != math.Float64bits(w.Ratio) ||
					math.Float64bits(g.Evidence) != math.Float64bits(w.Evidence) {
					t.Fatalf("%s (%d,%d): path vote %+v, reference %+v", p.name, i, j, g, w)
				}
				if g, w := hybridNameSimFlat(a, b), refHybridNameSimFlat(a, b); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s (%d,%d): name similarity %v, reference %v", p.name, i, j, g, w)
				}
				if len(a.children) == 0 || len(b.children) == 0 {
					continue
				}
				containers++
				got, want = got[:0], want[:0]
				greedyAlignChildren(a, b, func(ci, cj int, sim float64) {
					got = append(got, aligned{ci, cj, math.Float64bits(sim)})
				})
				refGreedyAlignChildren(a, b, func(ci, cj int, sim float64) {
					want = append(want, aligned{ci, cj, math.Float64bits(sim)})
				})
				if !slices.Equal(got, want) {
					t.Fatalf("%s (%d,%d): alignment %v, reference %v", p.name, i, j, got, want)
				}
			}
		}
		if containers == 0 {
			t.Fatalf("%s has no container pair to align", p.name)
		}
	}
}

// TestMatchScopedMatchesReference covers the scoped form: a partial
// scope must give the reference's candidate rows and scores exactly.
func TestMatchScopedMatchesReference(t *testing.T) {
	a, b, _ := synth.Pair(17, 20, 18, 10, 6)
	sv, dv := pairViews(a, b)
	scope := a.Roots()[2].Subtree()
	want := refMatchScoped(sparseTestEngine(8), sv, dv, scope)
	if want.Pairs() == 0 {
		t.Fatal("scoped reference stored no cells; the scope is too small to test")
	}
	for _, workers := range []int{1, 4} {
		eng := sparseTestEngine(8).WithOptions(WithWorkers(workers))
		assertSameSparse(t, fmt.Sprintf("scoped at %d workers", workers), eng.MatchScoped(sv, dv, scope).Matrix, want)
	}
}

// TestPropagationTieGoesToLowestChildIndex pins the greedy tie order of
// childrenAgreement: on equal scores the lowest child index wins, even
// when child IDs do not ascend with the child index. The target
// container's children are stored as [y2, y1, y3], so the sparse row
// walk meets y1 (index 1) before y2 (index 0).
func TestPropagationTieGoesToLowestChildIndex(t *testing.T) {
	a := schema.New("A", schema.FormatRelational)
	order := a.AddRoot("Order", schema.KindTable)
	x1 := a.AddElement(order, "x1", schema.KindColumn, schema.TypeString)
	x2 := a.AddElement(order, "x2", schema.KindColumn, schema.TypeString)

	b := schema.New("B", schema.FormatRelational)
	deal := b.AddRoot("Deal", schema.KindTable)
	y1 := b.AddElement(deal, "y1", schema.KindColumn, schema.TypeString)
	y2 := b.AddElement(deal, "y2", schema.KindColumn, schema.TypeString)
	y3 := b.AddElement(deal, "y3", schema.KindColumn, schema.TypeString)
	deal.Children = []*schema.Element{y2, y1, y3}
	sv, dv := pairViews(a, b)

	scores := []struct {
		src, dst *schema.Element
		s        float64
	}{
		{order, deal, 0.3},
		{x1, y1, 0.5}, {x1, y2, 0.5}, {x1, y3, 0.1},
		{x2, y1, 0.5}, {x2, y2, 0.4}, {x2, y3, 0.1},
	}
	all := []int32{0, 1, 2, 3}
	sparse := NewSparseMatrix(3, 4, [][]int32{all, all, all})
	dense := NewMatrix(3, 4)
	for _, c := range scores {
		sparse.Set(c.src.ID, c.dst.ID, c.s)
		dense.Set(c.src.ID, c.dst.ID, c.s)
	}

	// x1 takes y2 (index 0) on the tie, leaving y1 at 0.5 for x2.
	const alpha = 0.15
	want := clampScore((1-alpha)*0.3 + alpha*(0.5+0.5)/2)
	for _, workers := range []int{1, 4} {
		eng := PresetHarmony().WithOptions(WithPropagation(1, alpha), WithWorkers(workers))
		for _, m := range []ScoreMatrix{sparse, dense} {
			ref := refPropagate(alpha, sv, dv, m)
			got := eng.propagate(sv, dv, m)
			if g := got.At(order.ID, deal.ID); math.Float64bits(g) != math.Float64bits(want) {
				t.Errorf("%T at %d workers: container pair = %v, want %v", m, workers, g, want)
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 4; j++ {
					if g, r := got.At(i, j), ref.At(i, j); math.Float64bits(g) != math.Float64bits(r) {
						t.Errorf("%T at %d workers: cell (%d,%d) = %v, reference %v", m, workers, i, j, g, r)
					}
				}
			}
		}
	}
}

// TestSparseAlignmentTotalsMatchStructureVote is the align-once check:
// every container row of the case-study sparse match, voted by the
// structure voter with the totals candidate generation recorded, equals
// the same row voted without them (where the voter aligns each container
// pair itself), bit for bit.
func TestSparseAlignmentTotalsMatchStructureVote(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study candidate generation in -short mode")
	}
	sa, sb, _ := synth.CaseStudy(42)
	sv, dv := pairViews(sa, sb)
	cands, align := PresetHarmony().WithOptions(WithSparse(DefaultSparseBudget)).sparseCandidates(sv, dv, nil)
	sc := &pairScratch{src: sv, dst: dv}
	var recorded, direct []Vote
	checked := 0
	for i, row := range cands {
		av := sv.View(i)
		if av.El.IsLeaf() {
			if align[i] != nil {
				t.Fatalf("leaf row %d carries alignment totals", i)
			}
			continue
		}
		if len(row) == 0 {
			continue
		}
		recorded, direct = make([]Vote, len(row)), make([]Vote, len(row))
		StructureVoter{}.voteRow(av, row, align[i], recorded, sc)
		StructureVoter{}.voteRow(av, row, nil, direct, sc)
		for k, j := range row {
			got, want := recorded[k], direct[k]
			if math.Float64bits(got.Ratio) != math.Float64bits(want.Ratio) ||
				math.Float64bits(got.Evidence) != math.Float64bits(want.Evidence) {
				t.Fatalf("cell (%d,%d): recorded-total vote %+v, direct vote %+v", i, j, got, want)
			}
			if !dv.View(int(j)).El.IsLeaf() {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no container × container cells stored")
	}
	t.Logf("%d container × container cells checked", checked)
}

// TestPropagationPrunedParentReadsZero pins the leaf rule on a pruned
// parent pair: a leaf pair whose parents' pair is not stored blends with
// 0, as ScoreMatrix.At reads it, even right after a sibling row of
// another parent read that column.
func TestPropagationPrunedParentReadsZero(t *testing.T) {
	a := schema.New("A", schema.FormatRelational)
	p1 := a.AddRoot("P1", schema.KindTable)
	a1 := a.AddElement(p1, "a1", schema.KindColumn, schema.TypeString)
	a2 := a.AddElement(a.AddRoot("P2", schema.KindTable), "a2", schema.KindColumn, schema.TypeString)

	b := schema.New("B", schema.FormatRelational)
	q1 := b.AddRoot("Q1", schema.KindTable)
	b1 := b.AddElement(q1, "b1", schema.KindColumn, schema.TypeString)
	sv, dv := pairViews(a, b)

	// (P2, Q1) is pruned; (P1, Q1) is stored and read first.
	rows := make([][]int32, a.Len())
	rows[p1.ID] = []int32{int32(q1.ID)}
	rows[a1.ID] = []int32{int32(b1.ID)}
	rows[a2.ID] = []int32{int32(b1.ID)}
	m := NewSparseMatrix(a.Len(), b.Len(), rows)
	m.Set(p1.ID, q1.ID, 0.9)
	m.Set(a1.ID, b1.ID, 0.5)
	m.Set(a2.ID, b1.ID, 0.5)

	const alpha = 0.15
	eng := PresetHarmony().WithOptions(WithPropagation(1, alpha), WithWorkers(1))
	got := eng.propagate(sv, dv, m)
	want := refPropagate(alpha, sv, dv, m)
	if g, w := got.At(a2.ID, b1.ID), want.At(a2.ID, b1.ID); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("leaf pair under a pruned parent pair = %v, reference %v", g, w)
	}
}

// TestRowKernelMatchesReference pins row scoring to the frozen per-cell
// scorer (refScoreCell), bit for bit, under every preset at one and at
// four workers: dense MatchViews (propagated by the serial reference
// propagation), sparse MatchViews, MatchScoped dense and sparse,
// MatchCross, and the votes Explain reports. Explain is checked on every
// cell of the synth.Pair input and on the sparse cells of the larger
// ones.
func TestRowKernelMatchesReference(t *testing.T) {
	type pair struct {
		name   string
		a, b   *schema.Schema
		budget int
	}
	small, smallB, _ := synth.Pair(11, 20, 18, 10, 6)
	rel, _ := synth.Custom("M01_REL", schema.FormatRelational, synth.StyleRelational, 100, 30, 10, 0)
	xml, _ := synth.Custom("M02_XML", schema.FormatXML, synth.StyleXML, 101, 36, 10, 0)
	pairs := []pair{{"pair-11", small, smallB, 16}, {"custom-rel-xml", rel, xml, DefaultSparseBudget}}
	if !testing.Short() {
		sa, sb, _ := synth.CaseStudy(42)
		pairs = append(pairs, pair{"case-study", sa, sb, DefaultSparseBudget})
	}
	presets := Presets()
	for _, p := range pairs {
		sv, dv := pairViews(p.a, p.b)
		everyExplain := p.name == "pair-11"
		scope := p.a.Roots()[1].Subtree()
		inScope := make([]bool, sv.Len())
		for _, el := range scope {
			inScope[el.ID] = true
		}
		var srcEls, dstEls []*schema.Element
		for i, el := range p.a.Elements() {
			if i%3 == 0 {
				srcEls = append(srcEls, el)
			}
		}
		for j, el := range p.b.Elements() {
			if j%2 == 1 {
				dstEls = append(dstEls, el)
			}
		}
		for _, name := range presetNames() {
			base := presets[name]()
			raw := NewMatrix(sv.Len(), dv.Len())
			for i := 0; i < sv.Len(); i++ {
				for j := 0; j < dv.Len(); j++ {
					raw.Set(i, j, refScoreCell(base, sv, dv, i, j))
				}
			}
			var dense ScoreMatrix = raw
			for r := 0; r < base.propagationRounds; r++ {
				dense = refPropagate(base.propagationAlpha, sv, dv, dense)
			}
			sparseBase := base.WithOptions(WithSparse(p.budget), WithSparseCutoff(1))
			wantSparse := refMatchViews(sparseBase, sv, dv)
			wantScoped := refMatchScoped(sparseBase, sv, dv, scope)
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s, %s at %d workers", p.name, name, workers)
				eng := base.WithOptions(WithWorkers(workers))
				se := sparseBase.WithOptions(WithWorkers(workers))

				res := eng.MatchViews(sv, dv)
				assertSameCells(t, label+", dense", res.Matrix, dense, nil)
				res.Release()
				assertSameSparse(t, label+", sparse", se.MatchViews(sv, dv).Matrix, wantSparse)

				scoped := eng.MatchScoped(sv, dv, scope)
				if _, ok := scoped.Matrix.(*Matrix); !ok {
					t.Fatalf("%s: dense scoped match produced a %T", label, scoped.Matrix)
				}
				assertSameCells(t, label+", scoped dense", scoped.Matrix, raw, inScope)
				assertSameSparse(t, label+", scoped sparse", se.MatchScoped(sv, dv, scope).Matrix, wantScoped)

				cross := eng.MatchCross(sv, dv, srcEls, dstEls)
				if n := cross.Matrix.Pairs(); n != len(srcEls)*len(dstEls) {
					t.Fatalf("%s: cross match stored %d cells, want %d", label, n, len(srcEls)*len(dstEls))
				}
				for _, a := range srcEls {
					for _, b := range dstEls {
						if g, w := cross.Matrix.At(a.ID, b.ID), raw.At(a.ID, b.ID); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s, cross: cell (%d,%d) = %v, reference %v", label, a.ID, b.ID, g, w)
						}
					}
				}
			}
			explain := func(i, j int) {
				records := base.Explain(sv, dv, i, j)
				want, _ := refVoteAll(base, sv, dv, i, j)
				for k, r := range records {
					if math.Float64bits(r.Vote.Ratio) != math.Float64bits(want[k].Ratio) ||
						math.Float64bits(r.Vote.Evidence) != math.Float64bits(want[k].Evidence) {
						t.Fatalf("%s, %s: Explain (%d,%d) voter %s = %+v, reference %+v", p.name, name, i, j, r.Voter, r.Vote, want[k])
					}
				}
			}
			for i := 0; i < sv.Len(); i++ {
				if everyExplain {
					for j := 0; j < dv.Len(); j++ {
						explain(i, j)
					}
					continue
				}
				wantSparse.ForRow(i, func(j int, _ float64) bool {
					explain(i, j)
					return true
				})
			}
		}
	}
}

// presetNames returns the names of Presets in order.
func presetNames() []string {
	names := make([]string, 0, len(Presets()))
	for name := range Presets() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// assertSameCells fails unless every cell of got has want's bits; with
// rows set, only the rows it marks are compared, and every other row
// must read 0.
func assertSameCells(t *testing.T, label string, got, want ScoreMatrix, rows []bool) {
	t.Helper()
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			w := want.At(i, j)
			if rows != nil && !rows[i] {
				w = 0
			}
			if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%d,%d) = %v, reference %v", label, i, j, g, w)
			}
		}
	}
}
