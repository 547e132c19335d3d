package evolve

import (
	"fmt"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
)

// UpgradeReport is the product of one schema version bump: what changed,
// and what happened to every stored mapping that referenced the schema.
type UpgradeReport struct {
	Schema         string `json:"schema"`
	FromVersion    int    `json:"fromVersion"`
	ToVersion      int    `json:"toVersion"`
	OldFingerprint string `json:"oldFingerprint"`
	NewFingerprint string `json:"newFingerprint"`

	// Counts summarize the change set.
	Added, Removed, Renamed, Moved, Retyped, Unchanged int

	// DirtyPaths are the new-version paths that need re-matching.
	DirtyPaths []string `json:"dirtyPaths,omitempty"`

	// Artifacts reports each migrated artifact.
	Artifacts []*MigrationReport `json:"artifacts,omitempty"`

	// PairsKept / PairsRepathed / PairsDropped / Proposals sum the
	// artifact reports.
	PairsKept     int `json:"pairsKept"`
	PairsRepathed int `json:"pairsRepathed"`
	PairsDropped  int `json:"pairsDropped"`
	Proposals     int `json:"proposals"`

	// PairsScored counts the element pairs Rematch put through the
	// engine's voters, over every artifact it re-matched. A work count
	// for tests and experiments, kept out of the API's report.
	PairsScored int `json:"-"`
}

func (r *UpgradeReport) addArtifact(m *MigrationReport) {
	r.Artifacts = append(r.Artifacts, m)
	r.PairsKept += m.Kept
	r.PairsRepathed += m.Repathed
	r.PairsDropped += m.Dropped
	r.Proposals += m.Proposals
}

// Preserved returns the surviving fraction of previously stored pairs.
func (r *UpgradeReport) Preserved() float64 {
	total := r.PairsKept + r.PairsRepathed + r.PairsDropped
	if total == 0 {
		return 1
	}
	return float64(r.PairsKept+r.PairsRepathed) / float64(total)
}

// Summary renders the report headline.
func (r *UpgradeReport) Summary() string {
	return fmt.Sprintf("%s v%d -> v%d: +%d -%d ~%d renamed %d moved %d retyped; %d artifacts migrated (%d kept, %d repathed, %d dropped, %d proposed)",
		r.Schema, r.FromVersion, r.ToVersion,
		r.Added, r.Removed, r.Renamed, r.Moved, r.Retyped,
		len(r.Artifacts), r.PairsKept, r.PairsRepathed, r.PairsDropped, r.Proposals)
}

// Upgrade performs a version bump with mapping maintenance: it diffs the
// registered current version against next, migrates every stored match
// artifact referencing the schema through the diff in memory, and commits
// the bump together with the migrated artifacts through one
// registry.AddVersionIf call (search index and fingerprint update
// incrementally). The scoped re-match of dirty elements is separate
// (Rematch) because it needs an engine and a threshold, and callers may
// want it asynchronous.
//
// The upgrade is all-or-nothing. AddVersionIf applies only if the schema
// still has the fingerprint the diff was computed against, and only if
// every migrated artifact validates against next — a pre-existing
// dangling path on an artifact's counterpart side fails it. A failed
// upgrade leaves the registry exactly as it was; a successful one is a
// single journal record, so after a crash either the new version with all
// its migrated artifacts recovers, or the old state does.
//
// The schema must already be registered; registering a first version is
// AddSchema's job, not an upgrade.
func Upgrade(reg *registry.Registry, next *schema.Schema, steward string, opts Options, tags ...string) (*UpgradeReport, *ChangeSet, error) {
	if next == nil || next.Name == "" {
		return nil, nil, fmt.Errorf("evolve: schema must be non-nil and named")
	}
	cur, ok := reg.Schema(next.Name)
	if !ok {
		return nil, nil, fmt.Errorf("evolve: schema %q not registered (AddSchema first)", next.Name)
	}
	d := Diff(cur.Schema, next, opts)
	artifacts := reg.MatchesInvolving(next.Name)
	updates := make([]registry.MatchArtifact, 0, len(artifacts))
	reports := make([]*MigrationReport, 0, len(artifacts))
	for _, ma := range artifacts {
		var migrated *registry.MatchArtifact
		var mrep *MigrationReport
		if ma.SchemaA == next.Name && ma.SchemaB == next.Name {
			migrated, mrep = MigrateBoth(ma, d)
		} else {
			side, _ := ArtifactSide(ma, next.Name)
			migrated, mrep = Migrate(ma, d, side)
		}
		updates = append(updates, *migrated)
		reports = append(reports, mrep)
	}
	bump, err := reg.AddVersionIf(next, d.OldFingerprint, steward, updates, tags...)
	if err != nil {
		return nil, nil, fmt.Errorf("evolve: upgrading %q: %w", next.Name, err)
	}
	rep := &UpgradeReport{
		Schema:         next.Name,
		FromVersion:    bump.Prev.Version,
		ToVersion:      bump.Curr.Version,
		OldFingerprint: d.OldFingerprint,
		NewFingerprint: d.NewFingerprint,
		Added:          len(d.Added), Removed: len(d.Removed),
		Renamed: len(d.Renamed), Moved: len(d.Moved),
		Retyped: len(d.Retyped), Unchanged: d.Unchanged,
		DirtyPaths: d.DirtyNewPaths(),
	}
	for _, mrep := range reports {
		rep.addArtifact(mrep)
	}
	return rep, d, nil
}

// Rematch runs the scoped re-match after an Upgrade: for every artifact
// linking the evolved schema to a counterpart, the dirty elements — and
// only those — are scored against the full counterpart through the
// engine's scoped path (sparse candidate retrieval per dirty element when
// configured), and selections above the threshold join the artifact as
// proposed pairs with "rematch=evolve" provenance. Existing pairs win
// conflicts: a proposal never displaces a surviving decision on either
// side. It returns the total number of proposals appended, and updates the
// report's artifact entries in place when rep is non-nil.
func Rematch(reg *registry.Registry, eng *core.Engine, d *ChangeSet, rep *UpgradeReport, threshold float64) (int, error) {
	name := d.NewName
	cur, ok := reg.Schema(name)
	if !ok {
		return 0, fmt.Errorf("evolve: schema %q not registered", name)
	}
	dirty := d.DirtyElements(cur.Schema)
	if len(dirty) == 0 {
		return 0, nil
	}
	total := 0
	for _, ma := range reg.MatchesInvolving(name) {
		side, _ := ArtifactSide(ma, name)
		counterName := ma.SchemaB
		if side == SideB {
			counterName = ma.SchemaA
		}
		counter, ok := reg.Schema(counterName)
		if !ok || counterName == name {
			continue
		}
		sv, dv := core.PairProfiles(eng.Profile(cur.Schema), eng.Profile(counter.Schema))
		res := eng.MatchScoped(sv, dv, dirty)
		if rep != nil {
			rep.PairsScored += res.Scored
		}
		sel := core.SelectGreedyOneToOne(res.Matrix, threshold)
		if len(sel) == 0 {
			continue
		}
		usedMine := make(map[string]bool, len(ma.Pairs))
		usedTheirs := make(map[string]bool, len(ma.Pairs))
		for _, p := range ma.Pairs {
			mine, theirs := p.PathA, p.PathB
			if side == SideB {
				mine, theirs = theirs, mine
			}
			usedMine[mine] = true
			usedTheirs[theirs] = true
		}
		updated := *ma
		updated.Pairs = append([]registry.AssertedMatch(nil), ma.Pairs...)
		appended := 0
		for _, c := range sel {
			minePath := sv.View(c.Src).El.Path()
			theirPath := dv.View(c.Dst).El.Path()
			if usedMine[minePath] || usedTheirs[theirPath] {
				continue
			}
			score := c.Score
			if score >= 1 {
				score = 0.9999
			}
			pair := registry.AssertedMatch{
				PathA: minePath, PathB: theirPath,
				Score:  score,
				Status: registry.StatusProposed,
				Note:   rematchNote,
			}
			if side == SideB {
				pair.PathA, pair.PathB = pair.PathB, pair.PathA
			}
			updated.Pairs = append(updated.Pairs, pair)
			usedMine[minePath] = true
			usedTheirs[theirPath] = true
			appended++
		}
		if appended == 0 {
			continue
		}
		if err := reg.UpdateMatch(ma.ID, updated); err != nil {
			return total, fmt.Errorf("evolve: rematching %s: %w", ma.ID, err)
		}
		total += appended
		if rep != nil {
			for _, ar := range rep.Artifacts {
				if ar.ArtifactID == ma.ID {
					ar.Proposals += appended
					rep.Proposals += appended
					break
				}
			}
		}
	}
	return total, nil
}
