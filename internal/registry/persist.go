package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"harmony/internal/schema"
)

// persisted is the serialized form of a registry — both the legacy
// Save/Load JSON file and the payload of a store snapshot.
type persisted struct {
	Schemas []persistedEntry    `json:"schemas"`
	Matches []persistedArtifact `json:"matches"`
	NextID  int                 `json:"nextId"`
	// History holds superseded schema versions (version chains minus the
	// current entries, which live in Schemas). Absent in files written
	// before schema versioning; those load as single-entry chains.
	History []persistedEntry `json:"history,omitempty"`
}

type persistedEntry struct {
	Schema     json.RawMessage `json:"schema"`
	Steward    string          `json:"steward,omitempty"`
	Tags       []string        `json:"tags,omitempty"`
	Registered time.Time       `json:"registered"`
	// Version is the entry's place in its schema's version chain; 0 in
	// pre-versioning files, normalized to 1 at load.
	Version int `json:"version,omitempty"`
}

type persistedArtifact struct {
	ID         string          `json:"id"`
	SchemaA    string          `json:"schemaA"`
	SchemaB    string          `json:"schemaB"`
	Context    Context         `json:"context"`
	Provenance Provenance      `json:"provenance"`
	Pairs      []AssertedMatch `json:"pairs"`
}

// SnapshotView is a point-in-time copy of the registry's contents, taken
// under the read lock in O(entries) pointer copies. Serialization
// (Encode) happens outside any registry lock: entries and artifacts are
// replace-on-write — the registry never mutates them in place once
// stored — so the view stays consistent while writers proceed.
type SnapshotView struct {
	schemas []*Entry
	history []*Entry
	matches []*MatchArtifact
	nextID  int
}

// SnapshotView captures the current state. The optional during callback
// runs while the read lock is still held — the store uses it to read the
// WAL position the view corresponds to, which cannot move mid-copy
// because journal commits happen under the write lock.
func (r *Registry) SnapshotView(during func()) *SnapshotView {
	r.mu.RLock()
	v := &SnapshotView{
		schemas: make([]*Entry, 0, len(r.entries)),
		matches: make([]*MatchArtifact, 0, len(r.matches)),
		nextID:  r.nextID,
	}
	for _, e := range r.entries {
		v.schemas = append(v.schemas, e)
	}
	names := make([]string, 0, len(r.history))
	for name := range r.history {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v.history = append(v.history, r.history[name]...)
	}
	for _, ma := range r.matches {
		v.matches = append(v.matches, ma)
	}
	if during != nil {
		during()
	}
	r.mu.RUnlock()
	sort.Slice(v.schemas, func(i, j int) bool { return v.schemas[i].Schema.Name < v.schemas[j].Schema.Name })
	sort.Slice(v.matches, func(i, j int) bool { return v.matches[i].ID < v.matches[j].ID })
	return v
}

// Encode serializes the view to the registry's JSON interchange form.
func (v *SnapshotView) Encode() ([]byte, error) {
	p := persisted{NextID: v.nextID}
	marshalEntry := func(e *Entry) (persistedEntry, error) {
		raw, err := json.Marshal(e.Schema)
		if err != nil {
			return persistedEntry{}, err
		}
		return persistedEntry{
			Schema: raw, Steward: e.Steward, Tags: e.Tags,
			Registered: e.Registered, Version: e.Version,
		}, nil
	}
	for _, e := range v.schemas {
		pe, err := marshalEntry(e)
		if err != nil {
			return nil, fmt.Errorf("registry encode: %w", err)
		}
		p.Schemas = append(p.Schemas, pe)
	}
	for _, e := range v.history {
		pe, err := marshalEntry(e)
		if err != nil {
			return nil, fmt.Errorf("registry encode: %w", err)
		}
		p.History = append(p.History, pe)
	}
	for _, ma := range v.matches {
		p.Matches = append(p.Matches, persistedArtifact{
			ID: ma.ID, SchemaA: ma.SchemaA, SchemaB: ma.SchemaB,
			Context: ma.Context, Provenance: ma.Provenance, Pairs: ma.Pairs,
		})
	}
	data, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("registry encode: %w", err)
	}
	return data, nil
}

// Save writes the registry to path as JSON, atomically (temp file, fsync,
// rename). The registry lock is held only for the pointer copy of the
// state, never across serialization or disk I/O.
func (r *Registry) Save(path string) error {
	data, err := r.SnapshotView(nil).Encode()
	if err != nil {
		return fmt.Errorf("registry save: %w", err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("registry save: %w", err)
	}
	return nil
}

// WriteFileAtomic writes data to path via a temp file + fsync + rename,
// so a crash mid-write leaves either the old content or the new, never a
// torn file.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// DecodeSnapshot reconstructs a registry from bytes produced by
// SnapshotView.Encode (or a legacy Save file — same format). Artifacts
// are restored verbatim (IDs preserved); the search index is rebuilt over
// the current versions, and superseded versions rejoin their chains. The
// returned registry has no journal attached.
func DecodeSnapshot(data []byte) (*Registry, error) {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("registry decode: %w", err)
	}
	r := New()
	for _, pe := range p.Schemas {
		s, err := schema.ParseJSON(pe.Schema)
		if err != nil {
			return nil, fmt.Errorf("registry decode: %w", err)
		}
		if err := r.AddSchema(s, pe.Steward, pe.Tags...); err != nil {
			return nil, fmt.Errorf("registry decode: %w", err)
		}
		// preserve original registration time and version
		r.mu.Lock()
		r.entries[s.Name].Registered = pe.Registered
		if pe.Version > 1 {
			r.entries[s.Name].Version = pe.Version
		}
		r.mu.Unlock()
	}
	for _, pe := range p.History {
		s, err := schema.ParseJSON(pe.Schema)
		if err != nil {
			return nil, fmt.Errorf("registry decode: %w", err)
		}
		version := pe.Version
		if version < 1 {
			version = 1
		}
		r.mu.Lock()
		r.history[s.Name] = append(r.history[s.Name], &Entry{
			Schema:      s,
			Steward:     pe.Steward,
			Tags:        pe.Tags,
			Registered:  pe.Registered,
			Stats:       s.ComputeStats(),
			Fingerprint: s.Fingerprint(),
			Version:     version,
		})
		r.mu.Unlock()
	}
	r.mu.Lock()
	for _, chain := range r.history {
		sort.Slice(chain, func(i, j int) bool { return chain[i].Version < chain[j].Version })
	}
	for i := range p.Matches {
		pa := p.Matches[i]
		r.putMatchLocked(&MatchArtifact{
			ID: pa.ID, SchemaA: pa.SchemaA, SchemaB: pa.SchemaB,
			Context: pa.Context, Provenance: pa.Provenance, Pairs: pa.Pairs,
		})
	}
	r.nextID = p.NextID
	r.mu.Unlock()
	return r, nil
}

// ResetTo replaces the registry's entire contents with a snapshot's —
// the follower-side write half of replication re-bootstrap. The attached
// journal (if any) is kept but NOT notified: like Apply, a reset mirrors
// state that is already durable elsewhere. Concurrent readers see either
// the old state or the new, never a mix.
func (r *Registry) ResetTo(data []byte) error {
	fresh, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The search index pointer is read without the registry lock
	// (search.Index synchronizes internally), so it must never be
	// swapped: re-populate it in place instead.
	for name := range r.entries {
		if _, still := fresh.entries[name]; !still {
			r.index.Remove(name)
		}
	}
	for _, e := range fresh.entries {
		r.index.Add(e.Schema)
	}
	r.entries = fresh.entries
	r.history = fresh.history
	r.matches = fresh.matches
	r.involving = fresh.involving
	r.nextID = fresh.nextID
	return nil
}

// Load reads a registry previously written by Save.
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry load: %w", err)
	}
	r, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("registry load: %w", err)
	}
	return r, nil
}
