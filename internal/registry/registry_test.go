package registry

import (
	"sync"
	"testing"
	"time"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

func personSchema() *schema.Schema {
	s := schema.New("PersonSys", schema.FormatRelational)
	t := s.AddRoot("Person", schema.KindTable)
	s.AddElement(t, "PERSON_ID", schema.KindColumn, schema.TypeIdentifier)
	s.AddElement(t, "LAST_NAME", schema.KindColumn, schema.TypeString)
	return s
}

func individualSchema() *schema.Schema {
	s := schema.New("IndivSys", schema.FormatXML)
	t := s.AddRoot("IndividualType", schema.KindComplexType)
	s.AddElement(t, "individualId", schema.KindXMLElement, schema.TypeIdentifier)
	s.AddElement(t, "familyName", schema.KindXMLElement, schema.TypeString)
	return s
}

func TestAddAndGetSchema(t *testing.T) {
	r := New()
	if err := r.AddSchema(personSchema(), "G-6", "personnel", "authoritative"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	e, ok := r.Schema("PersonSys")
	if !ok || e.Steward != "G-6" || len(e.Tags) != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Stats.Elements != 3 {
		t.Errorf("stats not computed: %+v", e.Stats)
	}
	// duplicate registration fails
	if err := r.AddSchema(personSchema(), "other"); err == nil {
		t.Error("duplicate AddSchema should fail")
	}
	// invalid schemas fail
	if err := r.AddSchema(nil, "x"); err == nil {
		t.Error("nil schema should fail")
	}
}

func TestAddMatchValidation(t *testing.T) {
	r := New()
	if err := r.AddSchema(personSchema(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(individualSchema(), "b"); err != nil {
		t.Fatal(err)
	}
	good := MatchArtifact{
		SchemaA: "PersonSys", SchemaB: "IndivSys",
		Context:    ContextPlanning,
		Provenance: Provenance{CreatedBy: "engineer-1", Tool: "harmony"},
		Pairs: []AssertedMatch{
			{PathA: "Person/LAST_NAME", PathB: "IndividualType/familyName", Score: 0.8, Status: StatusAccepted, Annotation: AnnEquivalent},
			{PathA: "Person/PERSON_ID", PathB: "IndividualType/individualId", Score: 0.7, Status: StatusProposed},
		},
	}
	id, err := r.AddMatch(good)
	if err != nil {
		t.Fatal(err)
	}
	ma, ok := r.Match(id)
	if !ok {
		t.Fatal("stored match not found")
	}
	if ma.Provenance.CreatedAt.IsZero() {
		t.Error("CreatedAt not defaulted")
	}
	if got := len(ma.AcceptedPairs()); got != 1 {
		t.Errorf("accepted pairs = %d, want 1", got)
	}

	bad := good
	bad.Pairs = []AssertedMatch{{PathA: "Person/NOPE", PathB: "IndividualType/familyName", Score: 0.5}}
	if _, err := r.AddMatch(bad); err == nil {
		t.Error("dangling path should fail")
	}
	bad.Pairs = []AssertedMatch{{PathA: "Person/LAST_NAME", PathB: "IndividualType/familyName", Score: 1.5}}
	if _, err := r.AddMatch(bad); err == nil {
		t.Error("out-of-range score should fail")
	}
	bad.Pairs = nil
	bad.SchemaA = "Unknown"
	if _, err := r.AddMatch(bad); err == nil {
		t.Error("unregistered schema should fail")
	}
}

func TestTrustedPairsContext(t *testing.T) {
	r := New()
	_ = r.AddSchema(personSchema(), "a")
	_ = r.AddSchema(individualSchema(), "b")
	searchGrade := MatchArtifact{
		SchemaA: "PersonSys", SchemaB: "IndivSys", Context: ContextSearch,
		Pairs: []AssertedMatch{{PathA: "Person/PERSON_ID", PathB: "IndividualType/individualId", Score: 0.5, Status: StatusAccepted}},
	}
	integrationGrade := MatchArtifact{
		SchemaA: "PersonSys", SchemaB: "IndivSys", Context: ContextIntegration,
		Pairs: []AssertedMatch{{PathA: "Person/LAST_NAME", PathB: "IndividualType/familyName", Score: 0.9, Status: StatusAccepted}},
	}
	if _, err := r.AddMatch(searchGrade); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddMatch(integrationGrade); err != nil {
		t.Fatal(err)
	}
	// For search purposes both artifacts are trustworthy.
	if got := len(r.TrustedPairs("PersonSys", "IndivSys", ContextSearch)); got != 2 {
		t.Errorf("search-grade pairs = %d, want 2", got)
	}
	// For integration only the integration-grade artifact qualifies.
	pairs := r.TrustedPairs("PersonSys", "IndivSys", ContextIntegration)
	if len(pairs) != 1 || pairs[0].PathA != "Person/LAST_NAME" {
		t.Errorf("integration-grade pairs = %v", pairs)
	}
	// Orientation flip: querying from the other side swaps paths.
	flipped := r.TrustedPairs("IndivSys", "PersonSys", ContextIntegration)
	if len(flipped) != 1 || flipped[0].PathA != "IndividualType/familyName" {
		t.Errorf("flipped pairs = %v", flipped)
	}
}

func TestRemoveSchemaCascades(t *testing.T) {
	r := New()
	_ = r.AddSchema(personSchema(), "a")
	_ = r.AddSchema(individualSchema(), "b")
	_, err := r.AddMatch(MatchArtifact{SchemaA: "PersonSys", SchemaB: "IndivSys"})
	if err != nil {
		t.Fatal(err)
	}
	if removed, err := r.RemoveSchema("PersonSys"); err != nil || removed != 1 {
		t.Errorf("removed artifacts = %d (err %v), want 1", removed, err)
	}
	if r.Len() != 1 || len(r.Matches()) != 0 {
		t.Errorf("after remove: %d schemas, %d matches", r.Len(), len(r.Matches()))
	}
	for _, hit := range r.SearchText("last name person", 5) {
		if hit.Schema == "PersonSys" {
			t.Errorf("removed schema still searchable: %v", hit)
		}
	}
}

func TestValidateArtifactsDetectsDanglers(t *testing.T) {
	r := New()
	_ = r.AddSchema(personSchema(), "a")
	_ = r.AddSchema(individualSchema(), "b")
	_, _ = r.AddMatch(MatchArtifact{
		SchemaA: "PersonSys", SchemaB: "IndivSys",
		Pairs: []AssertedMatch{{PathA: "Person/LAST_NAME", PathB: "IndividualType/familyName", Score: 0.8}},
	})
	if problems := r.ValidateArtifacts(); len(problems) != 0 {
		t.Fatalf("unexpected problems: %v", problems)
	}
	// Replace PersonSys with a version lacking LAST_NAME.
	s2 := schema.New("PersonSys", schema.FormatRelational)
	tbl := s2.AddRoot("Person", schema.KindTable)
	s2.AddElement(tbl, "PERSON_ID", schema.KindColumn, schema.TypeIdentifier)
	r.ReplaceSchema(s2, "a")
	problems := r.ValidateArtifacts()
	if len(problems) != 1 {
		t.Fatalf("problems = %v, want 1 dangling path", problems)
	}
}

func TestAddVersionChains(t *testing.T) {
	r := New()
	v1 := personSchema()
	bump, err := r.AddVersion(v1, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if bump.Prev != nil || bump.Curr.Version != 1 {
		t.Fatalf("first AddVersion: prev=%v version=%d", bump.Prev, bump.Curr.Version)
	}
	v2 := personSchema()
	tbl := v2.Roots()[0]
	v2.AddElement(tbl, "FIRST_NAME", schema.KindColumn, schema.TypeString)
	bump, err = r.AddVersion(v2, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if bump.Prev == nil || bump.Prev.Version != 1 || bump.Curr.Version != 2 {
		t.Fatalf("second AddVersion: %+v", bump)
	}
	if bump.Prev.Fingerprint == bump.Curr.Fingerprint {
		t.Fatal("version bump kept the fingerprint despite content change")
	}
	chain := r.Versions("PersonSys")
	if len(chain) != 2 || chain[0].Version != 1 || chain[1].Version != 2 {
		t.Fatalf("Versions = %+v", chain)
	}
	if e, ok := r.SchemaVersion("PersonSys", 1); !ok || e.Schema.Len() != v1.Len() {
		t.Fatalf("SchemaVersion(1) = %+v, %v", e, ok)
	}
	cur, _ := r.Schema("PersonSys")
	if cur.Version != 2 || cur.Schema.ByPath("Person/FIRST_NAME") == nil {
		t.Fatalf("current entry is not v2: %+v", cur)
	}
	// History is bounded.
	for i := 0; i < maxHistory+5; i++ {
		if _, err := r.AddVersion(personSchema(), "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.Versions("PersonSys")); got != maxHistory+1 {
		t.Fatalf("chain length %d, want %d", got, maxHistory+1)
	}
	// RemoveSchema drops the whole chain.
	r.RemoveSchema("PersonSys")
	if r.Versions("PersonSys") != nil {
		t.Fatal("RemoveSchema left version history behind")
	}
}

func TestUpdateMatchValidatesAndPreservesID(t *testing.T) {
	r := New()
	if err := r.AddSchema(personSchema(), ""); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(individualSchema(), ""); err != nil {
		t.Fatal(err)
	}
	id, err := r.AddMatch(MatchArtifact{
		SchemaA: "PersonSys", SchemaB: "IndivSys",
		Pairs: []AssertedMatch{{PathA: "Person/PERSON_ID", PathB: "IndividualType/individualId", Score: 0.9, Status: StatusAccepted}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := r.Match(id)
	upd := *ma
	upd.Pairs = append([]AssertedMatch(nil), ma.Pairs...)
	upd.Pairs[0].Note = "migrated-from=Old/PERSON_ID"
	if err := r.UpdateMatch(id, upd); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Match(id)
	if got.ID != id || got.Pairs[0].Note == "" {
		t.Fatalf("update lost ID or note: %+v", got)
	}
	bad := upd
	bad.Pairs = []AssertedMatch{{PathA: "Person/NO_SUCH", PathB: "IndividualType/individualId", Score: 0.5}}
	if err := r.UpdateMatch(id, bad); err == nil {
		t.Fatal("UpdateMatch accepted a dangling path")
	}
	if err := r.UpdateMatch("match-999999", upd); err == nil {
		t.Fatal("UpdateMatch accepted an unknown ID")
	}
}

// roundTrip is what a store restart does to a registry: encode a
// snapshot, decode it and compact the index, as store.Open does.
func roundTrip(t *testing.T, r *Registry) *Registry {
	t.Helper()
	data, err := r.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	back.CompactIndex()
	return back
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := New()
	_ = r.AddSchema(personSchema(), "G-6", "personnel")
	_ = r.AddSchema(individualSchema(), "G-2")
	id, err := r.AddMatch(MatchArtifact{
		SchemaA: "PersonSys", SchemaB: "IndivSys", Context: ContextPlanning,
		Provenance: Provenance{CreatedBy: "eng", Tool: "harmony", CreatedAt: time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)},
		Pairs:      []AssertedMatch{{PathA: "Person/LAST_NAME", PathB: "IndividualType/familyName", Score: 0.8, Status: StatusAccepted}},
	})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, r)
	if back.Len() != 2 {
		t.Fatalf("loaded %d schemas", back.Len())
	}
	e, ok := back.Schema("PersonSys")
	if !ok || e.Steward != "G-6" || len(e.Tags) != 1 {
		t.Errorf("loaded entry = %+v", e)
	}
	ma, ok := back.Match(id)
	if !ok {
		t.Fatal("artifact lost in round trip")
	}
	if ma.Context != ContextPlanning || len(ma.Pairs) != 1 || ma.Provenance.CreatedBy != "eng" {
		t.Errorf("artifact corrupted: %+v", ma)
	}
	// search index rebuilt
	if got := back.SearchText("family name individual", 5); len(got) == 0 || got[0].Schema != "IndivSys" {
		t.Errorf("search after load = %v", got)
	}
	// new IDs don't collide with restored ones
	id2, err := back.AddMatch(MatchArtifact{SchemaA: "PersonSys", SchemaB: "IndivSys"})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Error("ID collision after load")
	}
}

func TestSaveLoadPreservesVersionChain(t *testing.T) {
	r := New()
	if err := r.AddSchema(personSchema(), "alice"); err != nil {
		t.Fatal(err)
	}
	v2 := personSchema()
	v2.AddElement(v2.Roots()[0], "FIRST_NAME", schema.KindColumn, schema.TypeString)
	if _, err := r.AddVersion(v2, "alice"); err != nil {
		t.Fatal(err)
	}
	r2 := roundTrip(t, r)
	chain := r2.Versions("PersonSys")
	if len(chain) != 2 || chain[0].Version != 1 || chain[1].Version != 2 {
		t.Fatalf("chain after reload: %+v", chain)
	}
	cur, _ := r2.Schema("PersonSys")
	if cur.Version != 2 {
		t.Fatalf("current version after reload = %d", cur.Version)
	}
	if chain[0].Fingerprint != personSchema().Fingerprint() {
		t.Fatal("superseded version lost its content")
	}
}

// TestDecodeSnapshotBuildsFlatIndex: a decoded snapshot's documents go
// straight into the index's flat segments, one build per posting space,
// with no CompactIndex, and a ResetTo over a populated registry does the
// same; either way searches rank as on the registry that was encoded.
func TestDecodeSnapshotBuildsFlatIndex(t *testing.T) {
	schemas, _, _ := synth.Collection(5, 4, 30)
	src := New()
	if _, errs := src.AddSchemas(schemas, "steward"); errs[0] != nil {
		t.Fatal(errs[0])
	}
	src.CompactIndex()
	data, err := src.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	fragments := 0
	for _, s := range schemas {
		fragments += len(s.Roots())
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	reset := New()
	if err := reset.AddSchema(personSchema(), "G-6"); err != nil {
		t.Fatal(err)
	}
	if err := reset.ResetTo(data); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Registry{"decode": decoded, "reset": reset} {
		is := r.IndexStats()
		if is.Merges != 2 {
			t.Errorf("%s: %d segment builds, want 2 (one per posting space)", name, is.Merges)
		}
		if is.TailSchemas != 0 || is.TailFragments != 0 {
			t.Errorf("%s: %d schemata and %d fragments in the tails, want none", name, is.TailSchemas, is.TailFragments)
		}
		if is.FlatSchemas != len(schemas) || is.FlatFragments != fragments || is.Schemas != len(schemas) {
			t.Errorf("%s: flat segments hold %d schemata (%d live) and %d fragments, want %d and %d",
				name, is.FlatSchemas, is.Schemas, is.FlatFragments, len(schemas), fragments)
		}
		for _, q := range schemas[:8] {
			want, got := src.SearchSchema(q, 5), r.SearchSchema(q, 5)
			if len(got) != len(want) {
				t.Fatalf("%s: %d results for %s, want %d", name, len(got), q.Name, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: result %d for %s = %+v, want %+v", name, i, q.Name, got[i], want[i])
				}
			}
		}
	}
	if _, ok := reset.Schema("PersonSys"); ok {
		t.Error("ResetTo kept a schema the snapshot does not hold")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New()
	schemas, _, _ := synth.Collection(17, 3, 4)
	var wg sync.WaitGroup
	for _, s := range schemas {
		wg.Add(1)
		go func(s *schema.Schema) {
			defer wg.Done()
			if err := r.AddSchema(s, "steward"); err != nil {
				t.Error(err)
			}
		}(s)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				r.Schemas()
				r.SearchText("unit identifier", 3)
			}
		}()
	}
	wg.Wait()
	if r.Len() != len(schemas) {
		t.Errorf("Len = %d, want %d", r.Len(), len(schemas))
	}
}

func TestAddVersionIfConflicts(t *testing.T) {
	r := New()
	v1 := personSchema()
	if err := r.AddSchema(v1, "alice"); err != nil {
		t.Fatal(err)
	}
	fp := v1.Fingerprint()
	v2 := personSchema()
	v2.AddElement(v2.Roots()[0], "FIRST_NAME", schema.KindColumn, schema.TypeString)
	// Wrong expectation: rejected, registry unchanged.
	if _, err := r.AddVersionIf(v2, "bogus-fingerprint", "alice", nil); err == nil {
		t.Fatal("AddVersionIf accepted a stale fingerprint")
	}
	if cur, _ := r.Schema("PersonSys"); cur.Version != 1 {
		t.Fatalf("failed CAS mutated the registry: %+v", cur)
	}
	// Matching expectation: applies.
	bump, err := r.AddVersionIf(v2, fp, "alice", nil)
	if err != nil || bump.Curr.Version != 2 {
		t.Fatalf("AddVersionIf: %v %+v", err, bump)
	}
	// Unregistered schema: rejected (no silent re-register at v1).
	r.RemoveSchema("PersonSys")
	if _, err := r.AddVersionIf(v2, fp, "alice", nil); err == nil {
		t.Fatal("AddVersionIf resurrected a removed schema")
	}
	if r.Len() != 0 {
		t.Fatal("failed CAS registered the schema")
	}
}
