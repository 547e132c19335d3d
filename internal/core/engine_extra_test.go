package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

func TestMatchDeterministic(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	eng := PresetHarmony()
	r1 := eng.Match(a, b)
	r2 := eng.Match(a, b)
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if r1.Matrix.At(i, j) != r2.Matrix.At(i, j) {
				t.Fatalf("non-deterministic at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatchScoresWithinOpenInterval(t *testing.T) {
	sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 3, 8, 6, 0)
	sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, 4, 8, 6, 4)
	res := PresetHarmony().Match(sa, sb)
	for i := 0; i < sa.Len(); i++ {
		res.Matrix.ForRow(i, func(_ int, s float64) bool {
			if !(s > -1 && s < 1) {
				t.Fatalf("score %f outside (-1,1)", s)
			}
			return true
		})
	}
}

func TestMatchScopedEqualsFullMatchWithoutPropagation(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	eng := NewEngine(PresetHarmony().Voters(), EvidenceWeighted{}) // no propagation
	sv, dv := pairViews(a, b)
	full := eng.MatchViews(sv, dv)
	partial := eng.MatchScoped(sv, dv, a.Elements())
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if full.Matrix.At(i, j) != partial.Matrix.At(i, j) {
				t.Fatalf("MatchScoped diverges at (%d,%d): %f vs %f",
					i, j, full.Matrix.At(i, j), partial.Matrix.At(i, j))
			}
		}
	}
}

func TestPropagationKeepsScoresBounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, seed, 3+rng.Intn(4), 4, 0)
		sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, seed+1, 3+rng.Intn(4), 4, 2)
		eng := NewEngine(PresetHarmony().Voters(), EvidenceWeighted{}, WithPropagation(3, 0.3))
		res := eng.Match(sa, sb)
		bounded := true
		for i := 0; i < sa.Len() && bounded; i++ {
			res.Matrix.ForRow(i, func(_ int, s float64) bool {
				bounded = s > -1 && s < 1
				return bounded
			})
		}
		return bounded
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPreprocessCachesParentAndChildViews(t *testing.T) {
	a := personSchemaA()
	sv, _ := pairViews(a, personSchemaB())
	root := a.ByPath("Person")
	leaf := a.ByPath("Person/LAST_NAME")
	rv := sv.View(root.ID)
	lv := sv.View(leaf.ID)
	if rv.parent != nil {
		t.Error("root should have no parent view")
	}
	if len(rv.children) != len(root.Children) {
		t.Errorf("child views = %d, want %d", len(rv.children), len(root.Children))
	}
	if lv.parent == nil {
		t.Error("leaf missing parent view")
	}
	// cached child views must carry the child's own tokens
	found := false
	for ci, c := range root.Children {
		if c == leaf {
			if len(rv.children[ci].NameTokens) != len(lv.NameTokens) {
				t.Error("child view tokens differ from child's own view")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("leaf not among root's children")
	}
	if !lv.HasDoc {
		t.Error("documented element should have HasDoc")
	}
	if sv.View(a.ByPath("Vehicle/VEHICLE_ID").ID).HasDoc {
		t.Error("undocumented element should not have HasDoc")
	}
}

func TestCandidatesZeroSpecReturnsEverything(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	res := PresetHarmony().Match(a, b)
	cands := res.Candidates(FilterSpec{})
	if len(cands) != a.Len()*b.Len() {
		t.Errorf("candidates = %d, want %d", len(cands), a.Len()*b.Len())
	}
}

func TestConfidenceRangeBoundariesInclusive(t *testing.T) {
	f := ConfidenceRange(0.2, 0.8)
	if !f(nil, nil, 0.2) || !f(nil, nil, 0.8) {
		t.Error("boundaries should be inclusive")
	}
	if f(nil, nil, 0.19999) || f(nil, nil, 0.80001) {
		t.Error("out-of-range scores should be rejected")
	}
}

func TestSubtreeOfRejectsForeignElements(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	f := SubtreeOf(a.ByPath("Person"))
	if f(b.ByPath("IndividualType")) {
		t.Error("filter accepted an element from another schema")
	}
	if !f(a.ByPath("Person")) || !f(a.ByPath("Person/LAST_NAME")) {
		t.Error("filter rejected subtree members")
	}
	if f(a.ByPath("Vehicle")) {
		t.Error("filter accepted a sibling subtree")
	}
}

func TestHistogramTotalInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		bins := 1 + rng.Intn(40)
		total := 0
		for _, n := range Histogram(m, bins) {
			total += n
		}
		return total == m.Pairs()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEngineAccessors(t *testing.T) {
	eng := PresetHarmony()
	if len(eng.Voters()) != 6 {
		t.Errorf("voters = %d", len(eng.Voters()))
	}
	if eng.Merger().Name() != "evidence-weighted" {
		t.Errorf("merger = %q", eng.Merger().Name())
	}
}

func TestEmptySchemaMatch(t *testing.T) {
	empty := schema.New("E", schema.FormatRelational)
	b := personSchemaB()
	res := PresetHarmony().Match(empty, b)
	if res.Matrix.Rows() != 0 || res.Matrix.Cols() != b.Len() {
		t.Errorf("dims = %dx%d", res.Matrix.Rows(), res.Matrix.Cols())
	}
	if got := SelectThreshold(res.Matrix, -1); len(got) != 0 {
		t.Errorf("empty match produced %d candidates", len(got))
	}
	// both empty
	res = PresetHarmony().Match(empty, schema.New("E2", schema.FormatXML))
	if res.Matrix.Pairs() != 0 {
		t.Error("expected zero pairs")
	}
}
