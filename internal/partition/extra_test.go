package partition

import (
	"testing"

	"harmony/internal/core"
	"harmony/internal/schema"
)

func TestVocabularyTermAccessors(t *testing.T) {
	v, _ := buildVocabFixture(t)
	for _, term := range v.Terms {
		if term.Label == "" {
			t.Error("term without label")
		}
		if term.Size() < 1 {
			t.Error("empty term")
		}
		n := 0
		for m := term.Mask; m != 0; m &= m - 1 {
			n++
		}
		if term.Schemas() != n {
			t.Errorf("Schemas() = %d, popcount = %d", term.Schemas(), n)
		}
	}
}

func TestVocabularyLabelIsLexicallySmallest(t *testing.T) {
	sa := tiny("SA", "zzz", 1)
	sb := tiny("SB", "aaa", 1)
	v, err := Build([]*schema.Schema{sa, sb}, []Correspondences{
		{I: 0, J: 1, Pairs: []core.Correspondence{{Src: 1, Dst: 1, Score: 0.9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range v.Cell(0b11) {
		if term.Label != "aaa_a" {
			t.Errorf("label = %q, want lexically smallest member", term.Label)
		}
	}
}

func TestBuildTooManySchemas(t *testing.T) {
	schemas := make([]*schema.Schema, 33)
	for i := range schemas {
		schemas[i] = tiny(string(rune('A'+i%26))+string(rune('0'+i/26)), "x", 1)
	}
	if _, err := Build(schemas, nil); err == nil {
		t.Error("expected error for > 32 schemata")
	}
}

func TestBuildNoCorrespondences(t *testing.T) {
	sa := tiny("SA", "a", 2)
	sb := tiny("SB", "b", 2)
	v, err := Build([]*schema.Schema{sa, sb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Terms) != sa.Len()+sb.Len() {
		t.Errorf("terms = %d, want all singletons", len(v.Terms))
	}
	if len(v.Cell(0b11)) != 0 {
		t.Error("shared cell should be empty")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveTermMerging(t *testing.T) {
	// a1~b1 and b1~c1 must merge a1, b1, c1 into one three-schema term
	// even though a1~c1 was never asserted.
	sa := tiny("SA", "a", 2)
	sb := tiny("SB", "b", 2)
	sc := tiny("SC", "c", 2)
	v, err := Build([]*schema.Schema{sa, sb, sc}, []Correspondences{
		{I: 0, J: 1, Pairs: []core.Correspondence{{Src: 1, Dst: 1, Score: 0.9}}},
		{I: 1, J: 2, Pairs: []core.Correspondence{{Src: 1, Dst: 1, Score: 0.9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	three := v.SharedByAll()
	if len(three) != 1 {
		t.Fatalf("three-way terms = %d, want 1", len(three))
	}
	if three[0].Size() != 3 {
		t.Errorf("term size = %d, want 3", three[0].Size())
	}
}

func TestBinaryEmptySchemas(t *testing.T) {
	a := schema.New("A", schema.FormatRelational)
	b := schema.New("B", schema.FormatXML)
	sv, dv := core.PairProfiles(core.CompileSchema(a), core.CompileSchema(b))
	res := &core.Result{Src: sv, Dst: dv, Matrix: core.NewMatrix(0, 0)}
	bp := FromResult(res, 0.5, true)
	st := bp.Stats()
	if st.SizeA != 0 || st.FractionAMatched != 0 {
		t.Errorf("empty stats: %+v", st)
	}
	if bp.OverlapCoefficient() != 0 {
		t.Error("empty overlap should be 0")
	}
}

func TestBuildViaHub(t *testing.T) {
	// Three schemata sharing a person concept: hub-based matching must
	// merge the terms transitively through the hub.
	mk := func(name, id, last string) *schema.Schema {
		s := schema.New(name, schema.FormatRelational)
		tb := s.AddRoot("Person", schema.KindTable)
		s.AddElement(tb, id, schema.KindColumn, schema.TypeIdentifier)
		s.AddElement(tb, last, schema.KindColumn, schema.TypeString)
		return s
	}
	hub := mk("Hub", "PERSON_ID", "LAST_NAME")
	s1 := mk("S1", "PERSON_IDENTIFIER", "FAMILY_NAME")
	s2 := mk("S2", "PERS_ID", "SURNAME")
	v, err := BuildViaHub(core.PresetHarmony(), []*schema.Schema{hub, s1, s2}, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(v.SharedByAll()); got < 2 {
		t.Errorf("hub strategy merged %d three-way terms, want >= 2 (id, name at least)", got)
	}
	if _, err := BuildViaHub(core.PresetHarmony(), []*schema.Schema{hub}, 5, 0.3); err == nil {
		t.Error("expected error for out-of-range hub")
	}
}
