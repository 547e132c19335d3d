package core

import (
	"sync"
	"testing"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

func buildTestSparse() *SparseMatrix {
	// 3×5 with rows {0:[1,3], 1:[], 2:[0,2,4]}
	return NewSparseMatrix(3, 5, [][]int32{{1, 3}, nil, {0, 2, 4}})
}

func TestSparseMatrixBasics(t *testing.T) {
	m := buildTestSparse()
	if m.Rows() != 3 || m.Cols() != 5 || m.Pairs() != 5 {
		t.Fatalf("dims: %d %d %d", m.Rows(), m.Cols(), m.Pairs())
	}
	m.Set(0, 3, 0.5)
	m.Set(2, 2, -0.25)
	if m.At(0, 3) != 0.5 || m.At(2, 2) != -0.25 {
		t.Error("Set/At mismatch on stored cells")
	}
	// pruned cells read as zero and ignore writes
	if m.At(0, 0) != 0 || m.At(1, 4) != 0 {
		t.Error("pruned cell should read 0")
	}
	m.Set(0, 0, 0.9)
	if m.At(0, 0) != 0 {
		t.Error("write to pruned cell should be ignored")
	}
	var visited []int
	m.ForRow(2, func(dst int, score float64) bool {
		visited = append(visited, dst)
		return true
	})
	if len(visited) != 3 || visited[0] != 0 || visited[2] != 4 {
		t.Errorf("ForRow visited %v", visited)
	}
	// early stop
	n := 0
	m.ForRow(2, func(int, float64) bool { n++; return false })
	if n != 1 {
		t.Errorf("ForRow early stop visited %d", n)
	}
	c := m.Clone()
	c.Set(0, 3, -0.5)
	if m.At(0, 3) != 0.5 {
		t.Error("Clone aliases original scores")
	}
}

func TestSparseMatrixSelections(t *testing.T) {
	m := buildTestSparse()
	m.Set(0, 1, 0.8)
	m.Set(0, 3, 0.6)
	m.Set(2, 0, 0.9)
	m.Set(2, 2, 0.3)

	above := SelectThreshold(m, 0.5)
	if len(above) != 3 || above[0].Score != 0.9 || above[0].Src != 2 {
		t.Errorf("SelectThreshold = %v", above)
	}
	if SelectThreshold(m, 2) != nil {
		t.Error("SelectThreshold with impossible threshold should be nil")
	}
	total := 0
	for _, n := range Histogram(m, 10) {
		total += n
	}
	if total != m.Pairs() {
		t.Errorf("histogram total %d != pairs %d", total, m.Pairs())
	}
}

// sparseTestEngine forces sparse scoring regardless of workload size.
func sparseTestEngine(budget int) *Engine {
	return PresetHarmony().WithOptions(WithSparse(budget), WithSparseCutoff(1))
}

func TestSparseActivation(t *testing.T) {
	a, b, _ := synth.Pair(3, 8, 8, 4, 5)
	// Default cutoff: workload far below DefaultSparseCutoff stays dense.
	res := PresetHarmony().WithOptions(WithSparse(8)).Match(a, b)
	if _, ok := res.Matrix.(*Matrix); !ok {
		t.Errorf("small match should fall back to dense, got %T", res.Matrix)
	}
	// Forced cutoff: sparse representation engages.
	res = sparseTestEngine(8).Match(a, b)
	sm, ok := res.Matrix.(*SparseMatrix)
	if !ok {
		t.Fatalf("expected sparse matrix, got %T", res.Matrix)
	}
	if sm.Pairs() >= a.Len()*b.Len() {
		t.Errorf("sparse stored %d of %d pairs: no pruning", sm.Pairs(), a.Len()*b.Len())
	}
	// Budget covering every target is dense with overhead; stay dense.
	res = PresetHarmony().WithOptions(WithSparse(b.Len()+1), WithSparseCutoff(1)).Match(a, b)
	if _, ok := res.Matrix.(*Matrix); !ok {
		t.Errorf("budget >= cols should fall back to dense, got %T", res.Matrix)
	}
}

// parityThreshold is the calibrated case-study operating point the parity
// property is asserted at.
const parityThreshold = 0.74

// parityMargin is how far a sparse score may fall below a dense score for
// the same pair before parity counts it as lost: the quality tolerance of
// the golden regression harness.
const parityMargin = 0.02

// TestSparseParityWithDense asserts the retrieval-safety property the
// sparse fast path rests on: every correspondence dense scoring puts at or
// above the operating point survives sparse scoring at the default budget
// (present in the candidate set, score within the quality margin). Smaller
// budgets are measured and logged so the budget/recall trade-off stays
// visible.
func TestSparseParityWithDense(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, b, _ := synth.Pair(seed, 30, 25, 15, 6)
		dense := PresetHarmony().Match(a, b)
		keep := SelectThreshold(dense.Matrix, parityThreshold)
		if len(keep) == 0 {
			t.Fatalf("seed %d: dense found no pairs above %.2f; workload too easy to test", seed, parityThreshold)
		}

		sparse := sparseTestEngine(DefaultSparseBudget).Match(a, b)
		sm := sparse.Matrix.(*SparseMatrix)
		for _, c := range keep {
			if sm.find(c.Src, c.Dst) < 0 {
				t.Errorf("seed %d: dense pair %v pruned from sparse candidates (%s vs %s)",
					seed, c, a.Element(c.Src).Path(), b.Element(c.Dst).Path())
				continue
			}
			if got := sm.At(c.Src, c.Dst); got < c.Score-parityMargin {
				t.Errorf("seed %d: pair %v scored %.3f sparse, more than %.2f below dense",
					seed, c, got, parityMargin)
			}
		}

		// Quantify recall at smaller budgets: how many of the dense
		// above-threshold pairs stay in the candidate set.
		for _, budget := range []int{4, 8, 16} {
			res := sparseTestEngine(budget).Match(a, b)
			bm := res.Matrix.(*SparseMatrix)
			hit := 0
			for _, c := range keep {
				if bm.find(c.Src, c.Dst) >= 0 {
					hit++
				}
			}
			recall := float64(hit) / float64(len(keep))
			t.Logf("seed %d budget %2d: candidate recall %.3f (%d/%d), %.1f%% of pairs scored",
				seed, budget, recall, hit, len(keep),
				100*float64(bm.Pairs())/float64(a.Len()*b.Len()))
			if budget >= 16 && recall < 0.9 {
				t.Errorf("seed %d: budget %d recall %.3f below 0.9", seed, budget, recall)
			}
		}
	}
}

// TestSparseAcronymRetrieval asserts the acronym families cross between
// query and index: an acronym-only pair shares no name tokens, so only
// the crossed acronym postings can retrieve it.
func TestSparseAcronymRetrieval(t *testing.T) {
	a := schema.New("A", schema.FormatRelational)
	ta := a.AddRoot("Records", schema.KindTable)
	a.AddElement(ta, "ZQV", schema.KindColumn, schema.TypeString)
	a.AddElement(ta, "Zebra_Quark_Vortex", schema.KindColumn, schema.TypeString)

	b := schema.New("B", schema.FormatXML)
	tb := b.AddRoot("Entries", schema.KindComplexType)
	b.AddElement(tb, "Zebra_Quark_Vortex", schema.KindXMLElement, schema.TypeString)
	b.AddElement(tb, "ZQV", schema.KindXMLElement, schema.TypeString)

	sv, dv := Preprocess(a, b)
	cands, _ := sparseTestEngine(8).sparseCandidates(sv, dv, nil)
	for _, pair := range [][2]string{
		{"Records/ZQV", "Entries/Zebra_Quark_Vortex"}, // raw acronym → expansion
		{"Records/Zebra_Quark_Vortex", "Entries/ZQV"}, // expansion → raw acronym
	} {
		src, dst := a.ByPath(pair[0]), b.ByPath(pair[1])
		found := false
		for _, j := range cands[src.ID] {
			if int(j) == dst.ID {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("acronym pair %s vs %s missing from candidates %v", pair[0], pair[1], cands[src.ID])
		}
	}
}

// TestSparseMatchConcurrent exercises the sparse scoring path under the
// race detector: one shared preprocessed view pair, several goroutines
// matching concurrently with a multi-worker engine, results identical.
func TestSparseMatchConcurrent(t *testing.T) {
	a, b, _ := synth.Pair(11, 20, 18, 10, 6)
	sv, dv := Preprocess(a, b)
	eng := PresetHarmony().WithOptions(WithSparse(16), WithSparseCutoff(1), WithWorkers(4))
	want := SelectThreshold(eng.MatchViews(sv, dv).Matrix, 0.4)

	const goroutines = 4
	results := make([][]Correspondence, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = SelectThreshold(eng.MatchViews(sv, dv).Matrix, 0.4)
		}(g)
	}
	wg.Wait()
	for g, got := range results {
		if len(got) != len(want) {
			t.Fatalf("goroutine %d: %d correspondences, want %d", g, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("goroutine %d diverges at %d: %v vs %v", g, i, got[i], want[i])
			}
		}
	}
}

func TestMatchScopedRestrictsRows(t *testing.T) {
	a, b, _ := synth.Pair(17, 20, 18, 10, 6)
	// Propagation off: scoped runs never propagate (partial rows would
	// blend against unscored zeros), so score parity with the full run is
	// only defined pre-propagation.
	eng := sparseTestEngine(8).WithOptions(WithPropagation(0, 0))
	sv, dv := Preprocess(a, b)

	scope := a.Roots()[2].Subtree()
	inScope := make(map[int]bool, len(scope))
	for _, el := range scope {
		inScope[el.ID] = true
	}
	res := eng.MatchScoped(sv, dv, scope)
	sm, ok := res.Matrix.(*SparseMatrix)
	if !ok {
		t.Fatalf("scoped sparse run produced %T", res.Matrix)
	}
	// Out-of-scope rows must be empty; in-scope rows must match the full
	// sparse run's scores for the cells both retain.
	for i := 0; i < sv.Len(); i++ {
		stored := 0
		sm.ForRow(i, func(int, float64) bool { stored++; return true })
		if !inScope[i] && stored != 0 {
			t.Fatalf("out-of-scope row %d has %d stored cells", i, stored)
		}
	}
	full := eng.MatchViews(sv, dv)
	for _, el := range scope {
		sm.ForRow(el.ID, func(j int, s float64) bool {
			if fs := full.Matrix.At(el.ID, j); fs > 0 && s > 0 && fs != s {
				t.Fatalf("scoped score (%d,%d)=%f differs from full %f", el.ID, j, s, fs)
			}
			return true
		})
	}
	// Dense fallback: an engine without sparse gives the same behavior as
	// MatchElements.
	denseRes := PresetHarmony().MatchScoped(sv, dv, scope)
	if _, isDense := denseRes.Matrix.(*Matrix); !isDense {
		t.Fatalf("dense engine MatchScoped produced %T", denseRes.Matrix)
	}
}

func TestMatchCrossScoresOnlySubset(t *testing.T) {
	a, b, _ := synth.Pair(19, 12, 10, 6, 5)
	eng := PresetHarmony()
	sv, dv := Preprocess(a, b)
	srcEls := a.Roots()[0].Subtree()
	dstEls := b.Roots()[1].Subtree()
	res := eng.MatchCross(sv, dv, srcEls, dstEls)
	inSrc := make(map[int]bool)
	for _, el := range srcEls {
		inSrc[el.ID] = true
	}
	inDst := make(map[int]bool)
	for _, el := range dstEls {
		inDst[el.ID] = true
	}
	// MatchElements is the reference: full rows for the source subset,
	// no propagation — MatchCross must agree on the dst subset exactly.
	rows := eng.MatchElements(sv, dv, srcEls)
	for i := 0; i < sv.Len(); i++ {
		for j := 0; j < dv.Len(); j++ {
			got := res.Matrix.At(i, j)
			if !inSrc[i] || !inDst[j] {
				if got != 0 {
					t.Fatalf("cell (%d,%d)=%f outside the cross subset", i, j, got)
				}
				continue
			}
			if want := rows.Matrix.At(i, j); got != want {
				t.Fatalf("cross cell (%d,%d)=%f, row-scoped=%f", i, j, got, want)
			}
		}
	}
}
