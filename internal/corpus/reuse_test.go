package corpus

import (
	"context"
	"math"
	"testing"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
)

// Three schemata describing the same person concept in different shops:
// the query (relational), a hub the registry already knows mappings for,
// and a candidate reachable only through the hub.
func personSchema() *schema.Schema {
	s := schema.New("PersonnelSys", schema.FormatRelational)
	t := s.AddRoot("Person", schema.KindTable)
	s.AddElement(t, "person_id", schema.KindColumn, schema.TypeIdentifier)
	s.AddElement(t, "full_name", schema.KindColumn, schema.TypeString)
	s.AddElement(t, "birth_date", schema.KindColumn, schema.TypeDate)
	s.AddElement(t, "home_city", schema.KindColumn, schema.TypeString)
	return s
}

func hubSchema() *schema.Schema {
	s := schema.New("HubMDR", schema.FormatXML)
	t := s.AddRoot("IndividualType", schema.KindComplexType)
	s.AddElement(t, "individualId", schema.KindXMLElement, schema.TypeIdentifier)
	s.AddElement(t, "individualName", schema.KindXMLElement, schema.TypeString)
	s.AddElement(t, "dateOfBirth", schema.KindXMLElement, schema.TypeDate)
	return s
}

func citizenSchema() *schema.Schema {
	s := schema.New("CivicSys", schema.FormatRelational)
	t := s.AddRoot("Citizen", schema.KindTable)
	s.AddElement(t, "citizen_id", schema.KindColumn, schema.TypeIdentifier)
	s.AddElement(t, "citizen_name", schema.KindColumn, schema.TypeString)
	s.AddElement(t, "date_of_birth", schema.KindColumn, schema.TypeDate)
	return s
}

// chainRegistry registers the three schemata and the two artifacts
// query↔hub and hub↔candidate (the second stored in flipped orientation
// to exercise reorientation).
func chainRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New()
	for _, s := range []*schema.Schema{personSchema(), hubSchema(), citizenSchema()} {
		if err := reg.AddSchema(s, "test"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := reg.AddMatch(registry.MatchArtifact{
		SchemaA: "PersonnelSys", SchemaB: "HubMDR",
		Context:    registry.ContextIntegration,
		Provenance: registry.Provenance{CreatedBy: "alice", Tool: "manual"},
		Pairs: []registry.AssertedMatch{
			{PathA: "Person/person_id", PathB: "IndividualType/individualId", Score: 0.9, Status: registry.StatusAccepted},
			{PathA: "Person/full_name", PathB: "IndividualType/individualName", Score: 0.8, Status: registry.StatusAccepted},
			{PathA: "Person/birth_date", PathB: "IndividualType/dateOfBirth", Score: 0.85, Status: registry.StatusAccepted},
			// Merely proposed (machine output): must not participate in
			// composition, even though its score would beat full_name's.
			{PathA: "Person/home_city", PathB: "IndividualType/individualName", Score: 0.95, Status: registry.StatusProposed},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = reg.AddMatch(registry.MatchArtifact{
		// Flipped orientation: the candidate is SchemaA here.
		SchemaA: "CivicSys", SchemaB: "HubMDR",
		Context:    registry.ContextIntegration,
		Provenance: registry.Provenance{CreatedBy: "bob", Tool: "manual"},
		Pairs: []registry.AssertedMatch{
			{PathA: "Citizen/citizen_id", PathB: "IndividualType/individualId", Score: 0.9, Status: registry.StatusAccepted},
			{PathA: "Citizen/citizen_name", PathB: "IndividualType/individualName", Score: 0.75, Status: registry.StatusAccepted},
			{PathA: "Citizen/date_of_birth", PathB: "IndividualType/dateOfBirth", Score: 0.8, Status: registry.StatusRejected},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestComposeVia(t *testing.T) {
	reg := chainRegistry(t)
	q, _ := reg.Schema("PersonnelSys")
	c, _ := reg.Schema("CivicSys")

	comp := composeVia(reg, q.Schema, c.Schema, 0.4, 0.5)
	if comp == nil {
		t.Fatal("no composition found")
	}
	if comp.hub != "HubMDR" {
		t.Errorf("hub = %q, want HubMDR", comp.hub)
	}
	// person_id: 0.9*0.9 = 0.81; full_name: 0.8*0.75 = 0.6. birth_date's
	// onward leg was rejected, so it must not compose; home_city's only
	// hub assertion is merely proposed, so it must not compose either
	// (nor displace full_name from individualName).
	want := map[string]struct {
		pathB string
		score float64
	}{
		"Person/person_id": {"Citizen/citizen_id", 0.81},
		"Person/full_name": {"Citizen/citizen_name", 0.6},
	}
	if len(comp.pairs) != len(want) {
		t.Fatalf("composed %d pairs, want %d: %+v", len(comp.pairs), len(want), comp.pairs)
	}
	for _, p := range comp.pairs {
		w, ok := want[p.PathA]
		if !ok {
			t.Errorf("unexpected composed pair %+v", p)
			continue
		}
		if p.PathB != w.pathB || math.Abs(p.Score-w.score) > 1e-9 {
			t.Errorf("composed %s -> %s @%.3f, want %s @%.3f", p.PathA, p.PathB, p.Score, w.pathB, w.score)
		}
	}
	// coverage = 2 composed of 3 hub-mapped query paths.
	if math.Abs(comp.coverage-2.0/3.0) > 1e-9 {
		t.Errorf("coverage = %.3f, want 0.667", comp.coverage)
	}
}

func TestComposeRespectsThresholdAndCoverage(t *testing.T) {
	reg := chainRegistry(t)
	q, _ := reg.Schema("PersonnelSys")
	c, _ := reg.Schema("CivicSys")

	// A threshold above every multiplied score kills the composition.
	if comp := composeVia(reg, q.Schema, c.Schema, 0.95, 0.1); comp != nil {
		t.Errorf("threshold 0.95 still composed %+v", comp.pairs)
	}
	// A coverage floor above 2/3 rejects the hub.
	if comp := composeVia(reg, q.Schema, c.Schema, 0.4, 0.9); comp != nil {
		t.Errorf("coverage floor 0.9 still composed via %q", comp.hub)
	}
}

func TestComposeNoHub(t *testing.T) {
	reg := registry.New()
	for _, s := range []*schema.Schema{personSchema(), citizenSchema()} {
		if err := reg.AddSchema(s, "test"); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := reg.Schema("PersonnelSys")
	c, _ := reg.Schema("CivicSys")
	if comp := composeVia(reg, q.Schema, c.Schema, 0.4, 0.5); comp != nil {
		t.Errorf("composition without artifacts: %+v", comp)
	}
}

func TestPipelineReusesComposedMapping(t *testing.T) {
	reg := chainRegistry(t)
	p := NewPipeline(reg, nil)
	eng := core.PresetHarmony()
	q, _ := reg.Schema("PersonnelSys")

	res, err := p.TopK(context.Background(), eng, q.Schema, Config{TopK: 2, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	var civic *SchemaMatch
	for i := range res.Matches {
		if res.Matches[i].Schema == "CivicSys" {
			civic = &res.Matches[i]
		}
	}
	if civic == nil {
		t.Fatalf("CivicSys not in matches: %+v", res.Matches)
	}
	if !civic.Reused || civic.Hub != "HubMDR" {
		t.Fatalf("CivicSys not served through the hub: %+v", civic)
	}
	// The composed pairs are present with their multiplied scores.
	foundComposed := false
	for _, pr := range civic.Pairs {
		if pr.PathA == "Person/person_id" && pr.PathB == "Citizen/citizen_id" {
			foundComposed = true
			if math.Abs(pr.Score-0.81) > 1e-9 {
				t.Errorf("composed score = %.3f, want 0.81", pr.Score)
			}
		}
	}
	if !foundComposed {
		t.Errorf("composed pair missing from %+v", civic.Pairs)
	}
	if res.Stats.Reused != 1 {
		t.Errorf("Stats.Reused = %d, want 1", res.Stats.Reused)
	}
	// The fallback engine pass may add pairs for uncovered elements, but
	// never duplicate a path already claimed by the composition.
	seenA := make(map[string]int)
	seenB := make(map[string]int)
	for _, pr := range civic.Pairs {
		seenA[pr.PathA]++
		seenB[pr.PathB]++
	}
	for p, n := range seenA {
		if n > 1 {
			t.Errorf("path %s appears %d times on side A", p, n)
		}
	}
	for p, n := range seenB {
		if n > 1 {
			t.Errorf("path %s appears %d times on side B", p, n)
		}
	}

	// NoReuse disables the stage: same candidate, engine-computed.
	res2, err := p.TopK(context.Background(), eng, q.Schema, Config{TopK: 2, Threshold: 0.4, NoReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res2.Matches {
		if m.Reused || m.Hub != "" {
			t.Errorf("NoReuse produced a reused match: %+v", m)
		}
	}
	if res2.Stats.Reused != 0 {
		t.Errorf("NoReuse Stats.Reused = %d", res2.Stats.Reused)
	}
}

// TestReuseContextIndependentOfUptime checks that setting up reuse for a
// query costs the same however many unrelated artifacts the registry has
// accumulated.
func TestReuseContextIndependentOfUptime(t *testing.T) {
	reg := registry.New()
	for _, s := range []*schema.Schema{personSchema(), hubSchema(), citizenSchema()} {
		if err := reg.AddSchema(s, "test"); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := reg.Schema("PersonnelSys")
	// The query's only artifact is machine-proposed, so reuse has no hub.
	if _, err := reg.AddMatch(registry.MatchArtifact{
		SchemaA: "PersonnelSys", SchemaB: "HubMDR",
		Pairs: []registry.AssertedMatch{
			{PathA: "Person/person_id", PathB: "IndividualType/individualId", Score: 0.9, Status: registry.StatusProposed},
		},
	}); err != nil {
		t.Fatal(err)
	}
	allocsWith := func(unrelated int) float64 {
		for reg.MatchCount() < unrelated+1 {
			if _, err := reg.AddMatch(registry.MatchArtifact{
				SchemaA: "CivicSys", SchemaB: "HubMDR",
				Pairs: []registry.AssertedMatch{
					{PathA: "Citizen/citizen_id", PathB: "IndividualType/individualId", Score: 0.9, Status: registry.StatusAccepted},
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if newReuseContext(reg, q.Schema) != nil {
				t.Fatal("reuse context built without an accepted query artifact")
			}
		})
	}
	few, many := allocsWith(10), allocsWith(2000)
	if few != many {
		t.Errorf("reuse setup allocates %v times with 10 unrelated artifacts, %v with 2000", few, many)
	}
}
