// Package evolve implements schema evolution: structural diffing of schema
// versions and incremental migration of stored match artifacts through a
// diff. Smith et al. (CIDR 2009) observe that enterprise schemata are
// long-lived and constantly maintained, and that the expensive asset is the
// *validated mapping* — the paper's match-maintenance scenario. Replacing a
// schema must therefore not throw the mappings away: unchanged elements
// keep their human-validated decisions, renamed and moved elements are
// re-pathed with provenance, and only the dirty residue is re-matched, via
// a scoped sparse-engine run over the changed elements.
//
// The package provides three layers:
//
//   - Diff(old, new): a typed change set — added, removed, renamed, moved,
//     retyped — with rename detection performed by the match engine itself
//     on the added×removed residue (a rename is just a very confident
//     1-element match).
//   - Migrate(artifact, diff, side): patch one stored MatchArtifact
//     through a change set.
//   - Upgrade / Rematch: the registry orchestration — version bump,
//     artifact migration, and the scoped re-match of dirty elements.
package evolve

import (
	"encoding/json"
	"fmt"
	"sort"

	"harmony/internal/core"
	"harmony/internal/schema"
)

// Change is one element-level difference between two schema versions.
type Change struct {
	// OldPath is the element's path in the old version ("" for additions).
	OldPath string `json:"oldPath,omitempty"`
	// NewPath is the element's path in the new version ("" for removals).
	NewPath string `json:"newPath,omitempty"`
	// Score is the engine's confidence for detected renames and moves
	// (1 for exact-name pairings, 0 for additions/removals).
	Score float64 `json:"score,omitempty"`
	// OldType and NewType are set on retyped changes. They serialize as
	// the type names ("integer", "decimal"), omitted when no retype.
	OldType schema.DataType `json:"-"`
	NewType schema.DataType `json:"-"`
}

// changeJSON is the wire form of Change: data types travel as their names
// so JSON consumers (harmony diff -json, the service report) see what a
// retype changed.
type changeJSON struct {
	OldPath string  `json:"oldPath,omitempty"`
	NewPath string  `json:"newPath,omitempty"`
	Score   float64 `json:"score,omitempty"`
	OldType string  `json:"oldType,omitempty"`
	NewType string  `json:"newType,omitempty"`
}

// MarshalJSON emits the retype type names alongside the paths.
func (c Change) MarshalJSON() ([]byte, error) {
	out := changeJSON{OldPath: c.OldPath, NewPath: c.NewPath, Score: c.Score}
	if c.OldType != c.NewType {
		out.OldType = c.OldType.String()
		out.NewType = c.NewType.String()
	}
	return json.Marshal(out)
}

// UnmarshalJSON inverts MarshalJSON.
func (c *Change) UnmarshalJSON(data []byte) error {
	var in changeJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	c.OldPath, c.NewPath, c.Score = in.OldPath, in.NewPath, in.Score
	c.OldType = schema.TypeFromString(in.OldType)
	c.NewType = schema.TypeFromString(in.NewType)
	return nil
}

// ChangeSet is the typed structural difference between two versions of a
// schema. Construct with Diff.
type ChangeSet struct {
	OldName, NewName               string
	OldFingerprint, NewFingerprint string
	OldLen, NewLen                 int

	// Added lists elements present only in the new version, in path order.
	Added []Change
	// Removed lists elements present only in the old version, in path
	// order.
	Removed []Change
	// Renamed lists elements whose name changed in place (same container
	// pairing), by old path.
	Renamed []Change
	// Moved lists elements re-parented under a different container, by old
	// path.
	Moved []Change
	// Retyped lists paired elements whose data type changed, by new path.
	Retyped []Change
	// Redocumented lists paired elements whose documentation text changed
	// in place, by new path. Documentation drift alone does not dirty a
	// validated pair, but it does change the element's token evidence.
	Redocumented []Change
	// Unchanged counts paired elements that are neither renamed, moved,
	// retyped nor re-documented (their path may still differ through an
	// ancestor's rename — PathMap covers that).
	Unchanged int

	// ExtraDirty lists additional new-version paths to treat as dirty
	// beyond what this diff found. Callers chaining upgrades use it to
	// carry an earlier version bump's un-re-matched dirty elements through
	// a later diff, so deferring a re-match across several PUTs never
	// loses work. DirtyNewPaths includes it.
	ExtraDirty []string

	pathMap map[string]string // old path -> new path for every paired element
}

// Options tunes Diff.
type Options struct {
	// RenameThreshold is the minimum engine score before an added×removed
	// pair is declared a rename/move rather than an independent add+remove
	// (default 0.5).
	RenameThreshold float64
	// Engine scores the residue for rename detection; nil uses the full
	// Harmony preset. The residue is small (changed elements only), so the
	// run is cheap regardless of schema size.
	Engine *core.Engine
}

func (o Options) withDefaults() Options {
	if o.RenameThreshold <= 0 {
		o.RenameThreshold = 0.5
	}
	if o.Engine == nil {
		o.Engine = core.PresetHarmony()
	}
	return o
}

// PathMap returns the old-path → new-path mapping of every surviving
// element, including elements whose path only changed because an ancestor
// was renamed. The returned map is shared; callers must not modify it.
func (c *ChangeSet) PathMap() map[string]string { return c.pathMap }

// Total returns the number of element-level changes.
func (c *ChangeSet) Total() int {
	return len(c.Added) + len(c.Removed) + len(c.Renamed) + len(c.Moved) +
		len(c.Retyped) + len(c.Redocumented)
}

// Empty reports whether the two versions are structurally identical.
func (c *ChangeSet) Empty() bool { return c.Total() == 0 }

// Churn returns the changed fraction relative to the larger version.
func (c *ChangeSet) Churn() float64 {
	n := c.OldLen
	if c.NewLen > n {
		n = c.NewLen
	}
	if n == 0 {
		return 0
	}
	return float64(c.Total()) / float64(n)
}

// DirtyNewPaths returns the new-version paths whose match decisions cannot
// be carried over and need re-matching: additions, renames, moves and
// retypes, deduplicated and sorted.
func (c *ChangeSet) DirtyNewPaths() []string {
	seen := make(map[string]bool)
	add := func(p string) {
		if p != "" {
			seen[p] = true
		}
	}
	for _, ch := range c.Added {
		add(ch.NewPath)
	}
	for _, ch := range c.Renamed {
		add(ch.NewPath)
	}
	for _, ch := range c.Moved {
		add(ch.NewPath)
	}
	for _, ch := range c.Retyped {
		add(ch.NewPath)
	}
	for _, p := range c.ExtraDirty {
		add(p)
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// DirtyElements resolves DirtyNewPaths against the new schema version,
// which must be the ChangeSet's new side.
func (c *ChangeSet) DirtyElements(s *schema.Schema) []*schema.Element {
	paths := c.DirtyNewPaths()
	out := make([]*schema.Element, 0, len(paths))
	for _, p := range paths {
		if el := s.ByPath(p); el != nil {
			out = append(out, el)
		}
	}
	return out
}

// Summary renders the one-line headline of a change set.
func (c *ChangeSet) Summary() string {
	s := fmt.Sprintf("%s: %d unchanged, %d added, %d removed, %d renamed, %d moved, %d retyped",
		c.NewName, c.Unchanged, len(c.Added), len(c.Removed), len(c.Renamed), len(c.Moved), len(c.Retyped))
	if len(c.Redocumented) > 0 {
		s += fmt.Sprintf(", %d redocumented", len(c.Redocumented))
	}
	return s + fmt.Sprintf(" (churn %.1f%%)", 100*c.Churn())
}

// Diff computes the typed change set between two versions of a schema.
// Pairing is tree-aware: elements pair by name and kind under paired
// parents first; the residue — everything a pure name walk cannot pair —
// goes through the match engine, and sufficiently confident pairs become
// renames (same container) or moves (different container). Children of a
// renamed container that kept their names are paired with it, so a single
// container rename does not dirty its whole subtree.
func Diff(old, new *schema.Schema, opts Options) *ChangeSet {
	opts = opts.withDefaults()
	cs := &ChangeSet{
		OldName: old.Name, NewName: new.Name,
		OldFingerprint: old.Fingerprint(), NewFingerprint: new.Fingerprint(),
		OldLen: old.Len(), NewLen: new.Len(),
		pathMap: make(map[string]string),
	}
	oldToNew := make([]int, old.Len())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	newPaired := make([]bool, new.Len())

	pair := func(oe, ne *schema.Element) {
		oldToNew[oe.ID] = ne.ID
		newPaired[ne.ID] = true
		cs.pathMap[oe.Path()] = ne.Path()
	}

	// Phase 1: name/kind pairing, top-down. Duplicate sibling names pair
	// in declaration order.
	var pairByName func(oldEls, newEls []*schema.Element)
	pairByName = func(oldEls, newEls []*schema.Element) {
		type key struct {
			name string
			kind schema.Kind
		}
		avail := make(map[key][]*schema.Element)
		for _, ne := range newEls {
			k := key{ne.Name, ne.Kind}
			avail[k] = append(avail[k], ne)
		}
		for _, oe := range oldEls {
			k := key{oe.Name, oe.Kind}
			cands := avail[k]
			if len(cands) == 0 {
				continue
			}
			ne := cands[0]
			avail[k] = cands[1:]
			pair(oe, ne)
			pairByName(oe.Children, ne.Children)
		}
	}
	pairByName(old.Roots(), new.Roots())

	// Phase 2: engine rename detection on the residue — everything the
	// name walk could not pair. The engine scores old-residue rows against
	// the new version once; candidate pairs above the threshold are then
	// consumed greedily, containers before leaves (pairing a renamed
	// container name-pairs its surviving children, taking them off the
	// table). Candidates under already-paired parents get a discounted
	// threshold: an in-place rename is prior-likely, a cross-container
	// jump needs more evidence.
	var oldResidue []*schema.Element
	for _, oe := range old.Elements() {
		if oldToNew[oe.ID] == -1 {
			oldResidue = append(oldResidue, oe)
		}
	}
	var newResidue []*schema.Element
	for _, ne := range new.Elements() {
		if !newPaired[ne.ID] {
			newResidue = append(newResidue, ne)
		}
	}
	pairScore := make(map[int]float64) // old element ID -> engine confidence
	if len(oldResidue) > 0 && len(newResidue) > 0 {
		sv, dv := core.PairProfiles(opts.Engine.Profile(old), opts.Engine.Profile(new))
		res := opts.Engine.MatchCross(sv, dv, oldResidue, newResidue)
		inPlaceThreshold := opts.RenameThreshold * 0.6
		cands := core.SelectThreshold(res.Matrix, inPlaceThreshold) // descending score
		for _, containersPass := range []bool{true, false} {
			for _, cand := range cands {
				oe, ne := old.Element(cand.Src), new.Element(cand.Dst)
				if oe.Kind.IsContainer() != containersPass {
					continue
				}
				if oldToNew[oe.ID] != -1 || newPaired[ne.ID] {
					continue
				}
				if oe.Kind.IsContainer() != ne.Kind.IsContainer() {
					continue
				}
				if cand.Score < opts.RenameThreshold && !samePairedParent(oe, ne, oldToNew) {
					continue
				}
				pair(oe, ne)
				pairScore[oe.ID] = cand.Score
				pairByName(oe.Children, ne.Children)
			}
		}
	}

	// Phase 2b: container inference from children. A container whose name
	// changed beyond engine recognition is still identifiable when its
	// children ended up paired under one unpaired new container: pair the
	// containers when a majority of the smaller child set agrees, and
	// name-pair their remaining children. Children mis-filed as moves by
	// phase 2 are corrected by the classification pass, which derives
	// kinds from the final pairing.
	for changed := true; changed; {
		changed = false
		for _, oe := range old.Elements() {
			if !oe.Kind.IsContainer() || oldToNew[oe.ID] != -1 || len(oe.Children) == 0 {
				continue
			}
			votes := make(map[int]int)
			for _, child := range oe.Children {
				ci := oldToNew[child.ID]
				if ci == -1 {
					continue
				}
				np := new.Element(ci).Parent
				if np != nil && !newPaired[np.ID] && np.Kind.IsContainer() == oe.Kind.IsContainer() {
					votes[np.ID]++
				}
			}
			bestID, bestVotes := -1, 0
			for id, v := range votes {
				if v > bestVotes || (v == bestVotes && (bestID == -1 || id < bestID)) {
					bestID, bestVotes = id, v
				}
			}
			if bestID == -1 {
				continue
			}
			ne := new.Element(bestID)
			minChildren := len(oe.Children)
			if len(ne.Children) < minChildren {
				minChildren = len(ne.Children)
			}
			if minChildren == 0 || bestVotes*2 < minChildren {
				continue
			}
			pair(oe, ne)
			pairScore[oe.ID] = float64(bestVotes) / float64(minChildren)
			pairByName(oe.Children, ne.Children)
			changed = true
		}
	}

	// Phase 3: classify from the final pairing. Removed = unpaired old,
	// Added = unpaired new; a paired element whose parents are not paired
	// with each other moved, one whose own name changed in place was
	// renamed, and type drift is recorded independently of either.
	for _, oe := range old.Elements() {
		ni := oldToNew[oe.ID]
		if ni == -1 {
			cs.Removed = append(cs.Removed, Change{OldPath: oe.Path()})
			continue
		}
		ne := new.Element(ni)
		ch := Change{OldPath: oe.Path(), NewPath: ne.Path(), Score: pairScore[oe.ID]}
		changed, repathed := false, false
		switch {
		case !samePairedParent(oe, ne, oldToNew):
			cs.Moved = append(cs.Moved, ch)
			changed, repathed = true, true
		case oe.Name != ne.Name:
			cs.Renamed = append(cs.Renamed, ch)
			changed, repathed = true, true
		}
		if oe.Type != ne.Type {
			cs.Retyped = append(cs.Retyped, Change{
				OldPath: oe.Path(), NewPath: ne.Path(),
				OldType: oe.Type, NewType: ne.Type,
			})
			changed = true
		}
		// A doc edit on a renamed/moved element is subsumed: those lists
		// already carry the element's full old and new token evidence, and
		// an element must never appear on two token-migration lists (the
		// corpus profile would subtract and add it twice).
		if oe.Doc != ne.Doc && !repathed {
			cs.Redocumented = append(cs.Redocumented, ch)
			changed = true
		}
		if !changed {
			cs.Unchanged++
		}
	}
	for _, ne := range new.Elements() {
		if !newPaired[ne.ID] {
			cs.Added = append(cs.Added, Change{NewPath: ne.Path()})
		}
	}

	sort.Slice(cs.Added, func(i, j int) bool { return cs.Added[i].NewPath < cs.Added[j].NewPath })
	sort.Slice(cs.Removed, func(i, j int) bool { return cs.Removed[i].OldPath < cs.Removed[j].OldPath })
	sort.Slice(cs.Renamed, func(i, j int) bool { return cs.Renamed[i].OldPath < cs.Renamed[j].OldPath })
	sort.Slice(cs.Moved, func(i, j int) bool { return cs.Moved[i].OldPath < cs.Moved[j].OldPath })
	sort.Slice(cs.Retyped, func(i, j int) bool { return cs.Retyped[i].NewPath < cs.Retyped[j].NewPath })
	sort.Slice(cs.Redocumented, func(i, j int) bool { return cs.Redocumented[i].NewPath < cs.Redocumented[j].NewPath })
	return cs
}

// samePairedParent reports whether two elements sit under parents that are
// paired with each other (both being roots counts).
func samePairedParent(oe, ne *schema.Element, oldToNew []int) bool {
	if oe.Parent == nil || ne.Parent == nil {
		return oe.Parent == nil && ne.Parent == nil
	}
	return oldToNew[oe.Parent.ID] == ne.Parent.ID
}
