package registry

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// indexNames is the schema-name universe of the index property test; the
// last name is never registered.
var indexNames = []string{"s0", "s1", "s2", "s3", "s4", "ghost"}

// checkArtifactIndex compares every per-schema lookup with a brute-force
// filter over Matches(): MatchesInvolving for every name, MatchesBetween
// for every ordered pair including a == b.
func checkArtifactIndex(t *testing.T, step string, r *Registry) {
	t.Helper()
	all := r.Matches()
	ids := func(ms []*MatchArtifact) []string {
		out := make([]string, 0, len(ms))
		for _, ma := range ms {
			out = append(out, ma.ID+":"+ma.SchemaA+"~"+ma.SchemaB)
		}
		return out
	}
	filter := func(keep func(*MatchArtifact) bool) []*MatchArtifact {
		var out []*MatchArtifact
		for _, ma := range all {
			if keep(ma) {
				out = append(out, ma)
			}
		}
		return out
	}
	for _, a := range indexNames {
		want := filter(func(ma *MatchArtifact) bool { return ma.SchemaA == a || ma.SchemaB == a })
		if got := r.MatchesInvolving(a); !slices.Equal(ids(got), ids(want)) {
			t.Fatalf("%s: MatchesInvolving(%s) = %v, want %v", step, a, ids(got), ids(want))
		}
		for _, b := range indexNames {
			want := filter(func(ma *MatchArtifact) bool {
				return (ma.SchemaA == a && ma.SchemaB == b) || (ma.SchemaA == b && ma.SchemaB == a)
			})
			if got := r.MatchesBetween(a, b); !slices.Equal(ids(got), ids(want)) {
				t.Fatalf("%s: MatchesBetween(%s, %s) = %v, want %v", step, a, b, ids(got), ids(want))
			}
		}
	}
}

// indexArtifact builds an artifact between two schemata made by
// testSchema(name, "id", "name"), mapping their id columns.
func indexArtifact(a, b string) MatchArtifact {
	return MatchArtifact{
		SchemaA: a, SchemaB: b,
		Provenance: Provenance{Tool: "index-test"},
		Pairs: []AssertedMatch{{
			PathA: a + "_root/id", PathB: b + "_root/id", Score: 0.5, Status: StatusProposed,
		}},
	}
}

// mutateRandomly applies one seeded random mutation: artifact add or
// side-changing update, schema removal, version bump or registration.
func mutateRandomly(t *testing.T, rng *rand.Rand, r *Registry) string {
	t.Helper()
	var registered []string
	for _, e := range r.Schemas() {
		registered = append(registered, e.Schema.Name)
	}
	pick := func() string { return registered[rng.Intn(len(registered))] }
	matches := r.Matches()
	switch op := rng.Intn(10); {
	case op < 4 && len(registered) > 0:
		a, b := pick(), pick()
		if _, err := r.AddMatch(indexArtifact(a, b)); err != nil {
			t.Fatal(err)
		}
		return "add " + a + "~" + b
	case op < 7 && len(matches) > 0:
		id := matches[rng.Intn(len(matches))].ID
		a, b := pick(), pick()
		if err := r.UpdateMatch(id, indexArtifact(a, b)); err != nil {
			t.Fatal(err)
		}
		return "update " + id + " to " + a + "~" + b
	case op < 8 && len(registered) > 2:
		name := pick()
		if _, err := r.RemoveSchema(name); err != nil {
			t.Fatal(err)
		}
		return "remove " + name
	case op < 9 && len(registered) > 0:
		name := pick()
		if _, err := r.AddVersion(testSchema(name, "id", "name"), "test"); err != nil {
			t.Fatal(err)
		}
		return "version " + name
	default:
		name := indexNames[rng.Intn(len(indexNames)-1)]
		if _, ok := r.Schema(name); ok {
			return "noop"
		}
		if err := r.AddSchema(testSchema(name, "id", "name"), "test"); err != nil {
			t.Fatal(err)
		}
		return "register " + name
	}
}

// TestArtifactIndexMatchesBruteForce drives the per-schema artifact
// index through a seeded random mutation sequence and every way a
// registry is rebuilt (replay, snapshot decode, reset, load), checking
// each lookup against a full scan after every step.
func TestArtifactIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	j := &memJournal{}
	r := New()
	r.SetJournal(j)
	for _, name := range indexNames[:3] {
		if err := r.AddSchema(testSchema(name, "id", "name"), "test"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		step := mutateRandomly(t, rng, r)
		checkArtifactIndex(t, fmt.Sprintf("step %d (%s)", i, step), r)
	}
	if r.MatchCount() == 0 {
		t.Fatal("the sequence left no artifacts to check")
	}

	replayed := New()
	for _, rec := range j.records {
		if err := replayed.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	checkArtifactIndex(t, "replay", replayed)

	data, err := r.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	checkArtifactIndex(t, "decode", decoded)

	// Reset a registry holding other artifacts, then keep mutating it:
	// the adopted index must stay in step with later writes.
	reset := New()
	for _, name := range []string{"s3", "s4"} {
		if err := reset.AddSchema(testSchema(name, "id", "name"), "test"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reset.AddMatch(indexArtifact("s3", "s4")); err != nil {
		t.Fatal(err)
	}
	if err := reset.ResetTo(data); err != nil {
		t.Fatal(err)
	}
	checkArtifactIndex(t, "reset", reset)
	for i := 0; i < 50; i++ {
		step := mutateRandomly(t, rng, reset)
		checkArtifactIndex(t, fmt.Sprintf("after reset, step %d (%s)", i, step), reset)
	}

	path := filepath.Join(t.TempDir(), "reg.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	checkArtifactIndex(t, "load", loaded)
}
