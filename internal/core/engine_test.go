package core

import (
	"math"
	"testing"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

// personSchemaA builds a small relational schema.
func personSchemaA() *schema.Schema {
	s := schema.New("A", schema.FormatRelational)
	p := s.AddRoot("Person", schema.KindTable)
	p.Doc = "A person tracked by the system"
	s.AddElement(p, "PERSON_ID", schema.KindColumn, schema.TypeIdentifier).Doc = "unique identifier of the person"
	s.AddElement(p, "LAST_NAME", schema.KindColumn, schema.TypeString).Doc = "family name"
	s.AddElement(p, "BIRTH_DT", schema.KindColumn, schema.TypeDate).Doc = "date of birth"
	v := s.AddRoot("Vehicle", schema.KindTable)
	v.Doc = "A vehicle"
	s.AddElement(v, "VEHICLE_ID", schema.KindColumn, schema.TypeIdentifier)
	s.AddElement(v, "MAKE_NM", schema.KindColumn, schema.TypeString).Doc = "manufacturer name"
	return s
}

// personSchemaB builds a structurally different XML schema covering an
// overlapping concept set with different naming conventions.
func personSchemaB() *schema.Schema {
	s := schema.New("B", schema.FormatXML)
	p := s.AddRoot("IndividualType", schema.KindComplexType)
	p.Doc = "An individual person record"
	s.AddElement(p, "individualId", schema.KindXMLElement, schema.TypeIdentifier).Doc = "identifier of the individual person"
	s.AddElement(p, "familyName", schema.KindXMLElement, schema.TypeString).Doc = "family name of the person"
	s.AddElement(p, "dateOfBirth", schema.KindXMLElement, schema.TypeDate).Doc = "date of birth"
	w := s.AddRoot("WeatherReport", schema.KindComplexType)
	w.Doc = "Weather observations"
	s.AddElement(w, "temperature", schema.KindXMLElement, schema.TypeDecimal).Doc = "observed temperature"
	s.AddElement(w, "windSpeed", schema.KindXMLElement, schema.TypeDecimal).Doc = "wind velocity"
	return s
}

func TestMatchIdenticalSchemas(t *testing.T) {
	s := personSchemaA()
	eng := PresetHarmony()
	res := eng.Match(s, personSchemaA())
	// Every element's best match must be itself.
	for i := 0; i < s.Len(); i++ {
		bestJ, bestS := -1, -2.0
		for j := 0; j < s.Len(); j++ {
			if v := res.Matrix.At(i, j); v > bestS {
				bestJ, bestS = j, v
			}
		}
		if bestJ != i {
			t.Errorf("element %d (%s): best match is %d (%s), score %f vs own %f",
				i, s.Element(i).Path(), bestJ, s.Element(bestJ).Path(), bestS, res.Matrix.At(i, i))
		}
		if bestS < 0.5 {
			t.Errorf("self-match score for %s = %f, want >= 0.5", s.Element(i).Path(), bestS)
		}
	}
}

func TestMatchFindsCrossNamingCorrespondences(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	res := PresetHarmony().Match(a, b)
	mustBeat := func(srcPath, dstPath string, decoys ...string) {
		t.Helper()
		src := a.ByPath(srcPath)
		dst := b.ByPath(dstPath)
		s := res.Matrix.At(src.ID, dst.ID)
		if s <= 0 {
			t.Errorf("%s vs %s: score %f, want positive", srcPath, dstPath, s)
		}
		for _, d := range decoys {
			ds := res.Matrix.At(src.ID, b.ByPath(d).ID)
			if ds >= s {
				t.Errorf("%s: decoy %s scored %f >= true match %s %f", srcPath, d, ds, dstPath, s)
			}
		}
	}
	mustBeat("Person/LAST_NAME", "IndividualType/familyName", "WeatherReport/temperature", "IndividualType/dateOfBirth")
	mustBeat("Person/BIRTH_DT", "IndividualType/dateOfBirth", "WeatherReport/windSpeed")
	mustBeat("Person", "IndividualType", "WeatherReport")
	// Unrelated pair should score at or below zero-ish.
	vm := res.Matrix.At(a.ByPath("Vehicle/MAKE_NM").ID, b.ByPath("WeatherReport/temperature").ID)
	lm := res.Matrix.At(a.ByPath("Person/LAST_NAME").ID, b.ByPath("IndividualType/familyName").ID)
	if vm >= lm {
		t.Errorf("unrelated pair %f should score below true pair %f", vm, lm)
	}
}

func TestMatchSubtreeOnlyFillsSubtreeRows(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	sv, dv := pairViews(a, b)
	eng := PresetHarmony()
	res := eng.MatchScoped(sv, dv, a.ByPath("Person").Subtree())
	if _, dense := res.Matrix.(*Matrix); !dense {
		t.Fatalf("PresetHarmony scoped a subtree into %T, want a dense matrix", res.Matrix)
	}
	for i := 0; i < a.Len(); i++ {
		inSub := a.Element(i).Root() == a.ByPath("Person")
		rowNonZero := false
		for j := 0; j < b.Len(); j++ {
			if res.Matrix.At(i, j) != 0 {
				rowNonZero = true
				break
			}
		}
		if inSub && !rowNonZero {
			t.Errorf("subtree row %d (%s) is all zero", i, a.Element(i).Path())
		}
		if !inSub && rowNonZero {
			t.Errorf("non-subtree row %d (%s) was scored", i, a.Element(i).Path())
		}
	}
}

func TestFilters(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	res := PresetHarmony().Match(a, b)

	// Depth filter: only table-level (depth 1) sources.
	cands := res.Candidates(FilterSpec{
		SrcNode: DepthExactly(1),
		Link:    ConfidenceRange(0.0, 1.0),
	})
	for _, c := range cands {
		if res.Src.View(c.Src).El.Depth() != 1 {
			t.Errorf("depth filter leaked %s", res.Src.View(c.Src).El.Path())
		}
	}

	// Sub-tree filter on both sides.
	cands = res.Candidates(FilterSpec{
		SrcNode: SubtreeOf(a.ByPath("Person")),
		DstNode: SubtreeOf(b.ByPath("IndividualType")),
	})
	if len(cands) != 4*4 {
		t.Errorf("subtree candidates = %d, want 16", len(cands))
	}

	// Confidence filter bounds.
	cands = res.Candidates(FilterSpec{Link: ConfidenceRange(0.4, 0.9)})
	for _, c := range cands {
		if c.Score < 0.4 || c.Score > 0.9 {
			t.Errorf("confidence filter leaked %v", c)
		}
	}

	// Kind filter.
	cands = res.Candidates(FilterSpec{SrcNode: KindIs(schema.KindTable)})
	for _, c := range cands {
		if res.Src.View(c.Src).El.Kind != schema.KindTable {
			t.Errorf("kind filter leaked %v", res.Src.View(c.Src).El.Kind)
		}
	}

	// Composition.
	f := AllNodes(DepthAtMost(2), KindIs(schema.KindColumn))
	if f(a.ByPath("Person")) {
		t.Error("AllNodes should reject tables")
	}
	if !f(a.ByPath("Person/LAST_NAME")) {
		t.Error("AllNodes should accept columns")
	}
	lf := AllLinks(ConfidenceRange(0, 1), func(_, _ *schema.Element, s float64) bool { return s > 0.2 })
	if lf(a.ByPath("Person"), b.ByPath("IndividualType"), 0.1) {
		t.Error("AllLinks should reject 0.1")
	}
}

func TestExplainConsistentWithMatrix(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	eng := NewEngine([]WeightedVoter{
		{Voter: NameVoter{}, Weight: 1},
		{Voter: DocVoter{}, Weight: 1},
	}, EvidenceWeighted{}) // no propagation, so Explain must reproduce scores
	sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 5, 10, 6, 2)
	sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, 5, 12, 6, 4)
	sparse := NewEngine(PresetHarmony().Voters(), EvidenceWeighted{},
		WithSparse(DefaultSparseBudget), WithSparseCutoff(1))
	for _, in := range []struct {
		name string
		eng  *Engine
		a, b *schema.Schema
	}{
		{"dense", eng, a, b},
		{"sparse", sparse, sa, sb},
	} {
		eng := in.eng
		sv, dv := pairViews(in.a, in.b)
		res := eng.MatchViews(sv, dv)
		if _, ok := res.Matrix.(*SparseMatrix); ok != (in.name == "sparse") {
			t.Fatalf("%s: engine produced %T", in.name, res.Matrix)
		}
		for i := 0; i < in.a.Len(); i++ {
			res.Matrix.ForRow(i, func(j int, got float64) bool {
				records := eng.Explain(sv, dv, i, j)
				votes := make([]Vote, len(records))
				weights := make([]float64, len(records))
				for k, r := range records {
					votes[k] = r.Vote
					weights[k] = r.Weight
				}
				want := mergeOne(eng.Merger(), votes, weights)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Explain mismatch at (%d,%d): %f vs %f", in.name, i, j, got, want)
				}
				return true
			})
		}
	}
}

func TestEngineWorkerCountsAgree(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"dense", nil},
		{"sparse", []Option{WithSparse(2), WithSparseCutoff(1)}},
	} {
		base := NewEngine(PresetHarmony().Voters(), EvidenceWeighted{}, WithPropagation(2, 0.15)).WithOptions(mode.opts...)
		r1 := base.WithOptions(WithWorkers(1)).Match(a, b)
		r8 := base.WithOptions(WithWorkers(8)).Match(a, b)
		if mode.name == "sparse" {
			if _, ok := r1.Matrix.(*SparseMatrix); !ok {
				t.Fatalf("sparse engine produced %T", r1.Matrix)
			}
		}
		if r1.Matrix.Pairs() != r8.Matrix.Pairs() {
			t.Fatalf("%s: worker counts store %d vs %d cells", mode.name, r1.Matrix.Pairs(), r8.Matrix.Pairs())
		}
		for i := 0; i < a.Len(); i++ {
			for j := 0; j < b.Len(); j++ {
				if math.Float64bits(r1.Matrix.At(i, j)) != math.Float64bits(r8.Matrix.At(i, j)) {
					t.Fatalf("%s: worker counts disagree at (%d,%d)", mode.name, i, j)
				}
			}
		}
	}
}

func TestPropagationLiftsConsistentSubtrees(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	base := NewEngine(PresetHarmony().Voters(), EvidenceWeighted{}).Match(a, b)
	prop := NewEngine(PresetHarmony().Voters(), EvidenceWeighted{}, WithPropagation(2, 0.2)).Match(a, b)
	src := a.ByPath("Person/BIRTH_DT").ID
	dst := b.ByPath("IndividualType/dateOfBirth").ID
	if !(prop.Matrix.At(src, dst) > 0) {
		t.Errorf("propagated score should stay positive: %f", prop.Matrix.At(src, dst))
	}
	// Propagation must not manufacture strong matches between unrelated subtrees.
	u1 := a.ByPath("Vehicle/MAKE_NM").ID
	u2 := b.ByPath("WeatherReport/temperature").ID
	if prop.Matrix.At(u1, u2) > base.Matrix.At(u1, u2)+0.3 {
		t.Errorf("propagation inflated unrelated pair: %f -> %f", base.Matrix.At(u1, u2), prop.Matrix.At(u1, u2))
	}
}

func TestPresetsConstruct(t *testing.T) {
	for name, mk := range Presets() {
		eng := mk()
		if eng == nil || len(eng.Voters()) == 0 || eng.Merger() == nil {
			t.Errorf("preset %s incomplete", name)
		}
	}
}

// BenchmarkPairScore measures the per-pair cost of scoring on the case
// study: row 1 against every target through scoreRow, all six voters
// plus the merger, with a pooled scratch bound to the pairing — the
// inner loop of every dense match, name memo included. ns/op is one
// row; ns/pair divides it by the row's pairs.
func BenchmarkPairScore(b *testing.B) {
	sa, sb, _ := synth.CaseStudy(42)
	sv, dv := pairViews(sa, sb)
	eng := PresetHarmony()
	out := make([]float64, dv.Len())
	sc := eng.getScratch(sv, dv)
	defer putScratch(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.scoreRow(sc, 1, nil, nil, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/pair")
}
