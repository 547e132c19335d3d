package partition

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"harmony/internal/core"
	"harmony/internal/schema"
)

// tiny builds a schema with n top-level leaf elements named with prefix.
func tiny(name, prefix string, n int) *schema.Schema {
	s := schema.New(name, schema.FormatRelational)
	t := s.AddRoot(prefix+"_tbl", schema.KindTable)
	for i := 0; i < n; i++ {
		s.AddElement(t, prefix+"_"+string(rune('a'+i)), schema.KindColumn, schema.TypeString)
	}
	return s
}

func TestBinaryFromResult(t *testing.T) {
	a := tiny("A", "x", 3) // 4 elements total
	b := tiny("B", "y", 2) // 3 elements total
	sv, dv := core.PairProfiles(core.CompileSchema(a), core.CompileSchema(b))
	m := core.NewMatrix(a.Len(), b.Len())
	m.Set(1, 1, 0.9) // x_a ~ y_a
	m.Set(2, 2, 0.8) // x_b ~ y_b
	m.Set(3, 2, 0.7) // x_c ~ y_b (m:n)
	res := &core.Result{Src: sv, Dst: dv, Matrix: m}

	bp := FromResult(res, 0.5, false)
	st := bp.Stats()
	if st.Pairs != 3 {
		t.Errorf("pairs = %d, want 3", st.Pairs)
	}
	if st.MatchedA != 3 || st.MatchedB != 2 {
		t.Errorf("matched = %d/%d, want 3/2", st.MatchedA, st.MatchedB)
	}
	if st.OnlyA != 1 || st.OnlyB != 1 {
		t.Errorf("only = %d/%d, want 1/1", st.OnlyA, st.OnlyB)
	}

	one := FromResult(res, 0.5, true)
	if len(one.Matched) != 2 {
		t.Errorf("one-to-one pairs = %d, want 2", len(one.Matched))
	}
	if got := one.Stats().OnlyA; got != 2 {
		t.Errorf("one-to-one OnlyA = %d, want 2", got)
	}
}

func TestBinaryStatsString(t *testing.T) {
	a := tiny("A", "x", 3)
	b := tiny("B", "y", 2)
	sv, dv := core.PairProfiles(core.CompileSchema(a), core.CompileSchema(b))
	m := core.NewMatrix(a.Len(), b.Len())
	m.Set(1, 1, 0.9)
	res := &core.Result{Src: sv, Dst: dv, Matrix: m}
	s := FromResult(res, 0.5, true).Stats().String()
	if s == "" {
		t.Error("empty stats string")
	}
}

func TestOverlapCoefficient(t *testing.T) {
	a := tiny("A", "x", 5) // 6 elements
	b := tiny("B", "y", 2) // 3 elements (smaller)
	sv, dv := core.PairProfiles(core.CompileSchema(a), core.CompileSchema(b))
	m := core.NewMatrix(a.Len(), b.Len())
	m.Set(1, 1, 0.9)
	m.Set(2, 2, 0.9)
	res := &core.Result{Src: sv, Dst: dv, Matrix: m}
	bp := FromResult(res, 0.5, true)
	// B is smaller: 2 of its 3 elements matched.
	if got := bp.OverlapCoefficient(); got < 0.66 || got > 0.67 {
		t.Errorf("overlap = %f, want 2/3", got)
	}
}

// buildVocabFixture creates three 1-table schemata and correspondences
// forming: one 3-way term, one A∩B term, and singletons.
func buildVocabFixture(t *testing.T) (*Vocabulary, []*schema.Schema) {
	t.Helper()
	sa := tiny("SA", "a", 3) // ids: 0 root, 1..3
	sb := tiny("SB", "b", 3)
	sc := tiny("SC", "c", 3)
	schemas := []*schema.Schema{sa, sb, sc}
	pairs := []Correspondences{
		{I: 0, J: 1, Pairs: []core.Correspondence{
			{Src: 1, Dst: 1, Score: 0.9}, // 3-way term via SA~SB
			{Src: 2, Dst: 2, Score: 0.8}, // A∩B term
		}},
		{I: 1, J: 2, Pairs: []core.Correspondence{
			{Src: 1, Dst: 1, Score: 0.85}, // extends 3-way term to SC
		}},
	}
	v, err := Build(schemas, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	return v, schemas
}

func TestVocabularyCells(t *testing.T) {
	v, schemas := buildVocabFixture(t)
	total := 0
	for _, s := range schemas {
		total += s.Len()
	}
	// terms: 1 three-way (3 elements) + 1 A∩B (2 elements) + singletons
	wantTerms := 2 + (total - 5)
	if len(v.Terms) != wantTerms {
		t.Fatalf("terms = %d, want %d", len(v.Terms), wantTerms)
	}
	if got := len(v.SharedByAll()); got != 1 {
		t.Errorf("SharedByAll = %d, want 1", got)
	}
	if got := len(v.Cell(0b011)); got != 1 {
		t.Errorf("cell A∩B = %d, want 1", got)
	}
	// Singletons: SA has 4 elements, 2 matched -> 2 exclusive.
	if got := len(v.ExclusiveTo(0)); got != 2 {
		t.Errorf("ExclusiveTo(SA) = %d, want 2", got)
	}
	// SC has 4 elements, 1 matched -> 3 exclusive.
	if got := len(v.ExclusiveTo(2)); got != 3 {
		t.Errorf("ExclusiveTo(SC) = %d, want 3", got)
	}
	counts := v.CellCounts()
	if len(counts) != 7 {
		t.Errorf("CellCounts entries = %d, want 2^3-1 = 7", len(counts))
	}
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != len(v.Terms) {
		t.Errorf("cell counts sum %d != terms %d", sum, len(v.Terms))
	}
	if got := len(v.SharedBy(2)); got != 2 {
		t.Errorf("SharedBy(2) = %d, want 2", got)
	}
}

func TestVocabularyMaskName(t *testing.T) {
	v, _ := buildVocabFixture(t)
	if got := v.MaskName(0b101); got != "SA∩SC" {
		t.Errorf("MaskName(101) = %q", got)
	}
	if got := v.MaskName(0b111); got != "SA∩SB∩SC" {
		t.Errorf("MaskName(111) = %q", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Error("expected error for empty schema set")
	}
	sa := tiny("SA", "a", 1)
	sb := tiny("SB", "b", 1)
	if _, err := Build([]*schema.Schema{sa, sb}, []Correspondences{{I: 0, J: 0}}); err == nil {
		t.Error("expected error for I == J")
	}
	bad := []Correspondences{{I: 0, J: 1, Pairs: []core.Correspondence{{Src: 99, Dst: 0}}}}
	if _, err := Build([]*schema.Schema{sa, sb}, bad); err == nil {
		t.Error("expected error for out-of-range correspondence")
	}
}

func TestVocabularyPartitionProperty(t *testing.T) {
	// Random correspondence graphs must always yield a valid partition:
	// cells disjoint, every element in exactly one term, masks consistent.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4) // 2..5 schemata
		schemas := make([]*schema.Schema, n)
		for i := range schemas {
			schemas[i] = tiny(string(rune('A'+i)), string(rune('a'+i)), 2+rng.Intn(5))
		}
		var pairs []Correspondences
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var cs []core.Correspondence
				for k := 0; k < rng.Intn(6); k++ {
					cs = append(cs, core.Correspondence{
						Src:   rng.Intn(schemas[i].Len()),
						Dst:   rng.Intn(schemas[j].Len()),
						Score: rng.Float64(),
					})
				}
				pairs = append(pairs, Correspondences{I: i, J: j, Pairs: cs})
			}
		}
		v, err := Build(schemas, pairs)
		if err != nil {
			return false
		}
		if v.Validate() != nil {
			return false
		}
		if v.NumCells() > (1<<uint(n))-1 {
			return false
		}
		// term count bounded by total elements
		total := 0
		for _, s := range schemas {
			total += s.Len()
		}
		return len(v.Terms) <= total && len(v.Terms) >= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBuildFromEngine(t *testing.T) {
	// Three small schemata where SA and SB share person fields and SC is
	// unrelated: the engine-driven vocabulary must put shared terms in the
	// SA∩SB cell and nothing in three-way cells.
	sa := schema.New("SA", schema.FormatRelational)
	p := sa.AddRoot("Person", schema.KindTable)
	sa.AddElement(p, "PERSON_ID", schema.KindColumn, schema.TypeIdentifier)
	sa.AddElement(p, "LAST_NAME", schema.KindColumn, schema.TypeString)
	sb := schema.New("SB", schema.FormatXML)
	q := sb.AddRoot("PersonType", schema.KindComplexType)
	sb.AddElement(q, "personId", schema.KindXMLElement, schema.TypeIdentifier)
	sb.AddElement(q, "lastName", schema.KindXMLElement, schema.TypeString)
	sc := schema.New("SC", schema.FormatRelational)
	w := sc.AddRoot("Weather", schema.KindTable)
	sc.AddElement(w, "TEMPERATURE", schema.KindColumn, schema.TypeDecimal)

	v, err := BuildFromEngine(context.Background(), core.PresetHarmony(), []*schema.Schema{sa, sb, sc}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(v.Cell(0b011)); got < 2 {
		t.Errorf("SA∩SB cell = %d terms, want >= 2 (person id, last name...)", got)
	}
	if got := len(v.SharedByAll()); got != 0 {
		t.Errorf("three-way cell = %d, want 0 (SC unrelated)", got)
	}
	if got := len(v.ExclusiveTo(2)); got != sc.Len() {
		t.Errorf("SC-exclusive = %d, want all %d", got, sc.Len())
	}
}

// TestResultDescribesCallersSchema: A and A2 share their content but not
// their name. Matched after A on one engine, whether through its own
// profile cache or one shared with other engines, A2's result must be
// over A2 itself: its schema, its elements and its partition.
func TestResultDescribesCallersSchema(t *testing.T) {
	a, a2, b := tiny("A", "x", 3), tiny("A2", "x", 3), tiny("B", "x", 2)
	if a.Fingerprint() != a2.Fingerprint() {
		t.Fatal("fixture: A and A2 must share a fingerprint")
	}
	for name, eng := range map[string]*core.Engine{
		"own cache":    core.PresetHarmony(),
		"shared cache": core.PresetHarmony().WithOptions(core.WithProfileCache(core.NewProfileCache(0))),
	} {
		eng.Match(a, b).Release()
		res := eng.Match(a2, b)
		if res.Src.Schema != a2 {
			t.Fatalf("%s: Src.Schema is %q, want A2", name, res.Src.Schema.Name)
		}
		for i := 0; i < res.Src.Len(); i++ {
			if res.Src.View(i).El != a2.Element(i) {
				t.Fatalf("%s: Src.View(%d).El is not A2's element %d", name, i, i)
			}
		}
		if got := FromResult(res, 0.5, true).A.Name; got != "A2" {
			t.Fatalf("%s: partition reports %q, want A2", name, got)
		}
		res.Release()
	}
}

// TestBuildFromEngineCancelled: a context cancelled before the call
// stops the N-way loop before its first match.
func TestBuildFromEngineCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pc := core.NewProfileCache(0)
	eng := core.PresetHarmony().WithOptions(core.WithProfileCache(pc))
	schemas := []*schema.Schema{tiny("A", "x", 2), tiny("B", "y", 2), tiny("C", "z", 2)}
	if _, err := BuildFromEngine(ctx, eng, schemas, 0.5); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := pc.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("a cancelled build looked up %d profiles", st.Hits+st.Misses)
	}
}
