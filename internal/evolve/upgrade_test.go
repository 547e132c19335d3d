package evolve

import (
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

func TestUpgradeMigratesArtifactsAndBumpsVersion(t *testing.T) {
	a, b, truth := synth.Pair(5, 20, 16, 12, 5)
	reg := registry.New()
	if err := reg.AddSchema(a, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSchema(b, "bob"); err != nil {
		t.Fatal(err)
	}
	ma := truthArtifact(truth, a, b)
	ma.ID = ""
	id, err := reg.AddMatch(*ma)
	if err != nil {
		t.Fatal(err)
	}

	a2, _, _ := synth.Evolve(a, truth, 9, synth.ChurnMixed(0.12))
	rep, d, err := Upgrade(reg, a2, "alice", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromVersion != 1 || rep.ToVersion != 2 {
		t.Fatalf("versions: %+v", rep)
	}
	if rep.OldFingerprint == rep.NewFingerprint {
		t.Fatal("upgrade did not change the fingerprint")
	}
	cur, _ := reg.Schema(a.Name)
	if cur.Version != 2 || cur.Fingerprint != rep.NewFingerprint {
		t.Fatalf("registry current entry: %+v", cur)
	}
	if len(reg.Versions(a.Name)) != 2 {
		t.Fatal("version chain not extended")
	}
	if len(rep.Artifacts) != 1 {
		t.Fatalf("artifact reports: %+v", rep.Artifacts)
	}
	// The stored artifact must now validate against the new version: no
	// dangling paths (the seed's ValidateArtifacts-after-the-fact gap).
	if problems := reg.ValidateArtifacts(); len(problems) != 0 {
		t.Fatalf("migrated artifacts dangle: %v", problems)
	}
	stored, _ := reg.Match(id)
	repathed := 0
	for _, p := range stored.Pairs {
		if strings.Contains(p.Note, "migrated-from=") {
			repathed++
			if p.Status != registry.StatusAccepted || p.ValidatedBy != "oracle" {
				t.Fatalf("re-pathed pair lost validation: %+v", p)
			}
		}
	}
	if repathed != rep.PairsRepathed {
		t.Fatalf("notes (%d) disagree with report (%d)", repathed, rep.PairsRepathed)
	}

	// Scoped re-match proposes matches for the dirty elements without
	// touching surviving decisions.
	before := len(stored.Pairs)
	eng := core.PresetHarmony()
	n, err := Rematch(reg, eng, d, rep, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := reg.Match(id)
	if len(after.Pairs) != before+n {
		t.Fatalf("pairs %d -> %d but %d proposals", before, len(after.Pairs), n)
	}
	for i := 0; i < before; i++ {
		if after.Pairs[i].Status == registry.StatusAccepted && after.Pairs[i].Note == rematchNote {
			t.Fatal("re-match overwrote an accepted pair")
		}
	}
	for _, p := range after.Pairs[before:] {
		if p.Status != registry.StatusProposed || p.Note != rematchNote {
			t.Fatalf("proposal lacks provenance: %+v", p)
		}
	}
	if problems := reg.ValidateArtifacts(); len(problems) != 0 {
		t.Fatalf("re-match left dangling paths: %v", problems)
	}
}

// TestRematchReusesProfiles counts compiles: an upgrade plus its scoped
// re-match over three artifacts, through an engine whose profile cache
// already holds the current version and its counterparts, compiles the
// evolved version once and serves every other lookup from the cache.
func TestRematchReusesProfiles(t *testing.T) {
	a, b, truth := synth.Pair(5, 20, 16, 12, 5)
	c, _ := synth.Custom("C", schema.FormatRelational, synth.StyleRelational, 6, 10, 5, 0)
	d, _ := synth.Custom("D", schema.FormatXML, synth.StyleXML, 7, 10, 5, 0)
	reg := registry.New()
	for _, s := range []*schema.Schema{a, b, c, d} {
		if err := reg.AddSchema(s, ""); err != nil {
			t.Fatal(err)
		}
	}
	ma := truthArtifact(truth, a, b)
	ma.ID = ""
	artifacts := []registry.MatchArtifact{*ma}
	for _, other := range []*schema.Schema{c, d} {
		artifacts = append(artifacts, registry.MatchArtifact{
			SchemaA: a.Name, SchemaB: other.Name,
			Pairs: []registry.AssertedMatch{{
				PathA: a.Roots()[0].Path(), PathB: other.Roots()[0].Path(),
				Score: 0.6, Status: registry.StatusAccepted,
			}},
		})
	}
	for _, art := range artifacts {
		if _, err := reg.AddMatch(art); err != nil {
			t.Fatal(err)
		}
	}
	pc := core.NewProfileCache(0)
	eng := core.PresetHarmony().WithOptions(core.WithProfileCache(pc))
	for _, s := range []*schema.Schema{a, b, c, d} {
		pc.Profile(s)
	}
	before := pc.Stats()

	a2, _, _ := synth.Evolve(a, truth, 9, synth.ChurnMixed(0.12))
	rep, cs, err := Upgrade(reg, a2, "", Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rematch(reg, eng, cs, rep, 0.5); err != nil {
		t.Fatal(err)
	}
	after := pc.Stats()
	if len(rep.Artifacts) != 3 || rep.PairsScored == 0 {
		t.Fatalf("want 3 artifacts re-matched, got %d artifacts and %d pairs scored", len(rep.Artifacts), rep.PairsScored)
	}
	// Rematch looks up the evolved version and a counterpart once per
	// artifact; only the first lookup of the evolved version compiles.
	misses, hits := after.Misses-before.Misses, after.Hits-before.Hits
	if misses != 1 || hits < 2*3-1 {
		t.Fatalf("profile lookups: %d misses, %d hits; want 1 miss (the evolved version) and at least 5 hits", misses, hits)
	}
	if p, ok := pc.Get(rep.NewFingerprint); !ok || p.Schema != a2 {
		t.Fatal("the evolved version's profile is not cached for the registered schema")
	}
}

func TestUpgradeUnregisteredFails(t *testing.T) {
	reg := registry.New()
	a, _, _ := synth.Pair(5, 4, 4, 2, 3)
	if _, _, err := Upgrade(reg, a, "", Options{}); err == nil {
		t.Fatal("Upgrade accepted an unregistered schema")
	}
}

// TestIncrementalBeatsFullRematch is the E13 acceptance gate: on a ~10%
// churn version bump, the scoped re-match must score a small fraction of
// the element pairs a full engine rematch of the new version scores (a
// work count; both wall-clock times are logged), while preserving at
// least 95% of the previously accepted pairs that should survive.
func TestIncrementalBeatsFullRematch(t *testing.T) {
	if testing.Short() {
		t.Skip("full-rematch baseline is heavyweight; run without -short")
	}
	a, b, truth := synth.Pair(3, 120, 100, 70, 7)
	reg := registry.New()
	if err := reg.AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSchema(b, ""); err != nil {
		t.Fatal(err)
	}
	ma := truthArtifact(truth, a, b)
	ma.ID = ""
	id, err := reg.AddMatch(*ma)
	if err != nil {
		t.Fatal(err)
	}
	accepted := len(ma.Pairs)
	a2, _, log := synth.Evolve(a, truth, 8, synth.ChurnMixed(0.10))
	eng := core.PresetHarmony()

	// Incremental path: structural diff, artifact migration, scoped
	// re-match of the dirty elements only.
	startInc := time.Now()
	rep, d, err := Upgrade(reg, a2, "", Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rematch(reg, eng, d, rep, 0.5); err != nil {
		t.Fatal(err)
	}
	incremental := time.Since(startInc)

	// Full path: what a version bump costs without evolution support —
	// re-match the whole new version against the counterpart.
	startFull := time.Now()
	res := eng.Match(a2, b)
	_ = core.SelectGreedyOneToOne(res.Matrix, 0.5)
	full := time.Since(startFull)

	t.Logf("pairs scored: scoped %d, full %d (%.1f%%); full=%v incremental=%v (churn %.1f%%, dirty %d of %d)",
		rep.PairsScored, res.Scored, 100*float64(rep.PairsScored)/float64(res.Scored),
		full, incremental, 100*d.Churn(), len(rep.DirtyPaths), a2.Len())
	// The scoped re-match scores the dirty rows only (here 86 of 966, so
	// 8.9% of the full match's pairs); routing it through a full match
	// scores every pair and fails.
	if rep.PairsScored == 0 || 4*rep.PairsScored > res.Scored {
		t.Fatalf("scoped re-match scored %d pairs, full rematch %d: want at most a quarter",
			rep.PairsScored, res.Scored)
	}

	// Preservation against ground truth.
	stored, _ := reg.Match(id)
	got := make(map[string]string, len(stored.Pairs))
	for _, p := range stored.Pairs {
		if p.Status == registry.StatusAccepted {
			got[p.PathA] = p.PathB
		}
	}
	shouldSurvive, preserved := 0, 0
	for _, p := range ma.Pairs {
		newPath, ok := log.Mapping[p.PathA]
		if !ok {
			continue
		}
		shouldSurvive++
		if got[newPath] == p.PathB {
			preserved++
		}
	}
	frac := float64(preserved) / float64(shouldSurvive)
	t.Logf("preserved %d/%d accepted pairs (%.3f) of %d originally", preserved, shouldSurvive, frac, accepted)
	if frac < 0.95 {
		t.Fatalf("preservation %.3f < 0.95", frac)
	}
}

// BenchmarkEvolveMigrate migrates a ground-truth artifact through a 10%
// churn diff on a 500-element schema — the steady-state cost of a version
// bump per stored artifact, diff excluded (it is amortized across all
// artifacts of the schema).
func BenchmarkEvolveMigrate(b *testing.B) {
	s, truth := synth.Custom("S", schema.FormatRelational, synth.StyleRelational, 13, 100, 4, 0)
	counter, _ := synth.Custom("C", schema.FormatRelational, synth.StyleRelational, 13, 100, 4, 0)
	ma := &registry.MatchArtifact{ID: "match-bench", SchemaA: s.Name, SchemaB: counter.Name}
	for i, e := range s.Elements() {
		if i%2 == 0 {
			continue
		}
		ce := counter.Element(e.ID)
		if ce == nil {
			break
		}
		ma.Pairs = append(ma.Pairs, registry.AssertedMatch{
			PathA: e.Path(), PathB: ce.Path(), Score: 0.8, Status: registry.StatusAccepted,
		})
	}
	s2, _, _ := synth.Evolve(s, truth, 29, synth.ChurnMixed(0.10))
	d := Diff(s, s2, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		migrated, _ := Migrate(ma, d, SideA)
		if migrated == nil {
			b.Fatal("nil migration")
		}
	}
}

// BenchmarkEvolveDiff prices the structural diff itself on the same
// 500-element, 10%-churn workload (engine rename detection included).
func BenchmarkEvolveDiff(b *testing.B) {
	s, truth := synth.Custom("S", schema.FormatRelational, synth.StyleRelational, 13, 100, 4, 0)
	s2, _, _ := synth.Evolve(s, truth, 29, synth.ChurnMixed(0.10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Diff(s, s2, Options{})
		if d.Empty() {
			b.Fatal("empty diff")
		}
	}
}
