package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"harmony/internal/evolve"
	"harmony/internal/schema"
)

// EvolveStats aggregates schema-evolution counters across the server's
// lifetime, served by GET /v1/stats.
type EvolveStats struct {
	// Upgrades counts accepted PUT /v1/schemas/{name} version bumps.
	Upgrades uint64 `json:"upgrades"`
	// PairsMigrated counts artifact pairs carried through a diff (kept or
	// re-pathed).
	PairsMigrated uint64 `json:"pairsMigrated"`
	// PairsDropped counts artifact pairs lost to removed elements.
	PairsDropped uint64 `json:"pairsDropped"`
	// Proposals counts fresh pairs appended by scoped re-matches.
	Proposals uint64 `json:"proposals"`
	// CacheInvalidated counts cache entries evicted by version bumps.
	CacheInvalidated uint64 `json:"cacheInvalidated"`
}

// evolveCounters accumulates EvolveStats under a lock, and parks the
// change set of each upgraded schema until its scoped re-match runs.
type evolveCounters struct {
	mu      sync.Mutex
	st      EvolveStats
	pending map[string]*evolve.ChangeSet
}

func (e *evolveCounters) snapshot() EvolveStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

func (e *evolveCounters) recordUpgrade(rep *evolve.UpgradeReport, invalidated int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.Upgrades++
	e.st.PairsMigrated += uint64(rep.PairsKept + rep.PairsRepathed)
	e.st.PairsDropped += uint64(rep.PairsDropped)
	e.st.CacheInvalidated += uint64(invalidated)
}

// park stores a schema's un-re-matched change set for a later migrate job.
func (e *evolveCounters) park(name string, d *evolve.ChangeSet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pending == nil {
		e.pending = make(map[string]*evolve.ChangeSet)
	}
	e.pending[name] = d
}

// absorb folds any still-parked earlier migration for name into d: the old
// change set's dirty paths are carried through d's path map into
// d.ExtraDirty, so a chain of PUTs that defers re-matching never silently
// forgets a dirty element — only paths whose elements the newer diff
// removed drop out. The parked entry is consumed.
func (e *evolveCounters) absorb(name string, d *evolve.ChangeSet) {
	e.mu.Lock()
	prev, ok := e.pending[name]
	if ok {
		delete(e.pending, name)
	}
	e.mu.Unlock()
	if !ok || prev == d {
		return
	}
	pathMap := d.PathMap()
	for _, p := range prev.DirtyNewPaths() {
		if np, survived := pathMap[p]; survived {
			d.ExtraDirty = append(d.ExtraDirty, np)
		}
	}
}

// parkIfAbsent re-parks a change set a failed re-match could not consume,
// unless a newer migration was parked in the meantime (the newer diff wins;
// its park already absorbed whatever was pending when it landed).
func (e *evolveCounters) parkIfAbsent(name string, d *evolve.ChangeSet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pending == nil {
		e.pending = make(map[string]*evolve.ChangeSet)
	}
	if _, ok := e.pending[name]; !ok {
		e.pending[name] = d
	}
}

func (e *evolveCounters) take(name string) (*evolve.ChangeSet, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.pending[name]
	if ok {
		delete(e.pending, name)
	}
	return d, ok
}

func (e *evolveCounters) hasPending(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.pending[name]
	return ok
}

func (e *evolveCounters) addProposals(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.Proposals += uint64(n)
}

// evolveResponse is the wire form of PUT /v1/schemas/{name}.
type evolveResponse struct {
	Schema  string `json:"schema"`
	Changed bool   `json:"changed"`
	Version int    `json:"version"`
	// Report is the upgrade report (nil when the content was identical).
	Report *evolve.UpgradeReport `json:"report,omitempty"`
	// CacheInvalidated is how many cached outcomes the bump evicted.
	CacheInvalidated int `json:"cacheInvalidated"`
	// RematchJob is the async migrate job's ID when rematch=async.
	RematchJob string `json:"rematchJob,omitempty"`
	// Proposals counts scoped re-match proposals (sync mode only).
	Proposals int `json:"proposals"`
	// RematchError reports a re-match that could not run (sync failure or
	// a full job queue). The upgrade itself has been committed either way;
	// the migration stays parked, so a later migrate job can claim it.
	RematchError string `json:"rematchError,omitempty"`
}

// handlePutSchema is PUT /v1/schemas/{name}: register the next version of
// an existing schema with mapping maintenance. The body is the schema in
// the JSON interchange format; its name must match the path. The server
// diffs the versions, bumps the registry chain, migrates every stored
// artifact through the diff, evicts cached outcomes computed against the
// old fingerprint, and migrates the corpus blocking profile incrementally.
//
// The scoped re-match of dirty elements is controlled by the rematch query
// parameter: "sync" (default) runs it on the request, "async" submits a
// migrate job and returns its ID, "none" skips it (a later migrate job may
// still claim it). steward and tags query parameters update catalog
// metadata as on POST.
func (s *Server) handlePutSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	mode := r.URL.Query().Get("rematch")
	switch mode {
	case "", "sync":
		mode = "sync"
	case "async", "none":
	default:
		writeError(w, http.StatusBadRequest, "unknown rematch mode %q (want sync, async or none)", mode)
		return
	}
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	sc, err := schema.ParseJSON(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sc.Name != name {
		writeError(w, http.StatusBadRequest, "body schema is named %q, path says %q", sc.Name, name)
		return
	}
	s.upgradeMu.Lock()
	defer s.upgradeMu.Unlock()
	cur, ok := s.reg.Schema(name)
	if !ok {
		writeError(w, http.StatusNotFound, "schema %q not registered (POST /v1/schemas to create)", name)
		return
	}
	if cur.Fingerprint == sc.Fingerprint() {
		writeJSON(w, http.StatusOK, evolveResponse{Schema: name, Changed: false, Version: cur.Version})
		return
	}
	oldSchema := cur.Schema
	rep, d, err := evolve.Upgrade(s.reg, sc, r.URL.Query().Get("steward"), s.evolveOptions(), parseTags(r)...)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	invalidated := s.cache.InvalidateFingerprint(rep.OldFingerprint)
	// The compiled profile of the retired content must go in the same
	// sweep, or a re-match after the bump would score against the old
	// version's tokens and TF-IDF statistics.
	s.profiles.InvalidateFingerprint(rep.OldFingerprint)
	removed, added := changedElements(d, oldSchema, sc)
	s.corpusPipe.EvolveProfile(rep.OldFingerprint, rep.NewFingerprint, removed, added)
	s.evolveStats.recordUpgrade(rep, invalidated)
	// An unclaimed earlier migration (a prior PUT with its re-match
	// deferred) folds into this diff so its dirty elements are re-matched
	// too, whatever mode this request chose.
	s.evolveStats.absorb(name, d)
	s.logf("service: schema %s v%d -> v%d (%d dirty, %d cache entries invalidated)",
		name, rep.FromVersion, rep.ToVersion, len(rep.DirtyPaths), invalidated)

	resp := evolveResponse{
		Schema: name, Changed: true, Version: rep.ToVersion,
		Report: rep, CacheInvalidated: invalidated,
	}
	// From here on the upgrade is committed (registry, cache, corpus
	// profile); a re-match problem must degrade to a parked migration the
	// client can retry with a migrate job — never to an error status that
	// makes a successful version bump look failed.
	switch mode {
	case "sync":
		n, err := s.rematch(r.Context(), d, rep)
		if err != nil {
			s.evolveStats.park(name, d)
			resp.RematchError = err.Error()
		} else {
			resp.Proposals = n
		}
	case "async":
		s.evolveStats.park(name, d)
		id, err := s.queue.Submit(KindMigrate, func(ctx context.Context) (any, error) {
			return s.runMigrateJob(ctx, name)
		})
		if err != nil {
			resp.RematchError = err.Error()
		} else {
			resp.RematchJob = id
		}
	case "none":
		s.evolveStats.park(name, d)
	}
	writeJSON(w, http.StatusOK, resp)
}

// evolveOptions derives the diff options from the server defaults: rename
// detection runs on the default preset's engine (with the server's sparse
// configuration, so huge residues stay bounded).
func (s *Server) evolveOptions() evolve.Options {
	return evolve.Options{Engine: s.engines[s.cfg.Preset]}
}

// rematch runs the scoped re-match for an upgraded schema and accounts for
// the proposals.
func (s *Server) rematch(ctx context.Context, d *evolve.ChangeSet, rep *evolve.UpgradeReport) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n, err := evolve.Rematch(s.reg, s.engines[s.cfg.Preset], d, rep, s.cfg.Threshold)
	if err != nil {
		return 0, err
	}
	s.evolveStats.addProposals(n)
	return n, nil
}

// MigrateJobResult is a migrate job's Result payload.
type MigrateJobResult struct {
	Schema    string `json:"schema"`
	Proposals int    `json:"proposals"`
}

// runMigrateJob claims the parked change set of an upgraded schema and
// runs its scoped re-match on a worker.
func (s *Server) runMigrateJob(ctx context.Context, name string) (any, error) {
	d, ok := s.evolveStats.take(name)
	if !ok {
		return nil, fmt.Errorf("no pending migration for schema %q", name)
	}
	rep := &evolve.UpgradeReport{Schema: name}
	n, err := s.rematch(ctx, d, rep)
	if err != nil {
		// A cancelled or failed job must not lose the migration: re-park
		// it (unless a newer PUT parked a fresher diff meanwhile) so a
		// later migrate job can claim it, as the API contract promises.
		s.evolveStats.parkIfAbsent(name, d)
		return nil, err
	}
	return &MigrateJobResult{Schema: name, Proposals: n}, nil
}

// changedElements maps a change set onto the element lists the corpus
// profile migration consumes: old-version elements whose tokens left, and
// new-version elements whose tokens arrived. Renames, moves and
// documentation edits contribute both sides (a moved element's name may
// have changed along the way, and doc text is token evidence too —
// subtracting and re-adding identical tokens is a cheap no-op, dropping a
// changed element is a silently stale profile). Retypes carry no tokens.
func changedElements(d *evolve.ChangeSet, old, new *schema.Schema) (removed, added []*schema.Element) {
	for _, ch := range d.Removed {
		if el := old.ByPath(ch.OldPath); el != nil {
			removed = append(removed, el)
		}
	}
	for _, chs := range [][]evolve.Change{d.Renamed, d.Moved, d.Redocumented} {
		for _, ch := range chs {
			if el := old.ByPath(ch.OldPath); el != nil {
				removed = append(removed, el)
			}
			if el := new.ByPath(ch.NewPath); el != nil {
				added = append(added, el)
			}
		}
	}
	for _, ch := range d.Added {
		if el := new.ByPath(ch.NewPath); el != nil {
			added = append(added, el)
		}
	}
	return removed, added
}

// parseTags reads the tags query parameter (comma-separated).
func parseTags(r *http.Request) []string {
	if t := r.URL.Query().Get("tags"); t != "" {
		return strings.Split(t, ",")
	}
	return nil
}
