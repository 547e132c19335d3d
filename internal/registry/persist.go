package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"harmony/internal/schema"
	"harmony/internal/search"
)

// persisted is the serialized form of a registry: the payload of a
// store snapshot.
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
// SnapshotView.Encode. It admits the snapshot the way bulk ingest admits
// a stream: the envelope is read as a stream, and each schema is parsed
// once and prepared (stats, fingerprint, index documents) on GOMAXPROCS
// workers as it arrives; then every current version is admitted in one
// batch, keeping its recorded registration time and version. Superseded
// versions rejoin their chains and artifacts are restored verbatim (IDs
// preserved). The search index is built from the snapshot's documents
// at once, both posting spaces fully merged. The returned registry has
// no journal attached.
func DecodeSnapshot(data []byte) (*Registry, error) {
	r := New()
	if err := r.ResetTo(data); err != nil {
		return nil, err
	}
	return r, nil
}

// ResetTo replaces the registry's entire contents with a snapshot's —
// the memory-only follower's write half of replication bootstrap. It is
// PrepareReset followed by its install: a snapshot that fails to decode
// leaves the registry untouched.
func (r *Registry) ResetTo(data []byte) error {
	install, err := r.PrepareReset(data)
	if err != nil {
		return err
	}
	install()
	return nil
}

// PrepareReset decodes and prepares a snapshot as DecodeSnapshot does,
// and builds its index segments, all outside the registry lock; it
// changes nothing. The returned install replaces the registry's contents
// with the snapshot's under the write lock: the current versions go
// through batch admission and the new segments replace the live index's
// (the index object stays the same: searches hold it without the
// registry lock). Splitting the two lets a store reject an undecodable
// snapshot before it touches its own files. Decoding has rejected
// duplicate names, so every schema is admitted. The attached journal (if
// any) is kept but NOT notified: like Apply, a reset mirrors state that
// is already durable elsewhere. Concurrent readers see either the old
// state or the new, never a mix.
func (r *Registry) PrepareReset(data []byte) (install func(), err error) {
	c, err := r.decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	batch := make([]*PreparedSchema, len(c.current))
	docs := make([]*search.PreparedDoc, len(c.current))
	for i, d := range c.current {
		batch[i], docs[i] = d.ps, d.ps.pd
	}
	swapIndex := r.index.Reset(docs)
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.entries = make(map[string]*Entry, len(c.current))
		r.history = make(map[string][]*Entry)
		r.matches = make(map[string]*MatchArtifact, len(c.matches))
		r.involving = make(map[string]map[string]*MatchArtifact)
		r.admitLocked(batch, make([]error, len(batch)))
		swapIndex()
		for _, d := range c.current {
			e := r.entries[d.ps.Schema.Name]
			e.Registered = d.pe.Registered
			e.Version = max(d.pe.Version, 1)
		}
		for _, d := range c.history {
			r.history[d.e.Schema.Name] = append(r.history[d.e.Schema.Name], d.e)
		}
		for _, chain := range r.history {
			sort.Slice(chain, func(i, j int) bool { return chain[i].Version < chain[j].Version })
		}
		for i := range c.matches {
			pa := c.matches[i]
			r.putMatchLocked(&MatchArtifact{
				ID: pa.ID, SchemaA: pa.SchemaA, SchemaB: pa.SchemaB,
				Context: pa.Context, Provenance: pa.Provenance, Pairs: pa.Pairs,
			})
		}
		r.nextID = c.nextID
	}, nil
}

// snapshotContent is a decoded, prepared snapshot, ready to install.
type snapshotContent struct {
	current []*decodedEntry
	history []*decodedEntry
	matches []persistedArtifact
	nextID  int
}

// decodedEntry is one snapshot entry: its recorded form and, once a
// worker has parsed it, the prepared schema (a current version) or the
// chain entry (a superseded one).
type decodedEntry struct {
	pe   persistedEntry
	meta [][]byte // entryKeys spans still to decode (the scanner's path)
	ps   *PreparedSchema
	e    *Entry
	err  error
}

// decodeSnapshot reads the envelope and prepares every entry on
// GOMAXPROCS workers as it arrives. An envelope outside the shape the
// encoder writes is decoded again by encoding/json, so either path
// accepts exactly what encoding/json accepts. The first failing entry in
// envelope order is reported, as is a name registered twice.
func (r *Registry) decodeSnapshot(data []byte) (*snapshotContent, error) {
	c, err := r.decodeEntries(data, scanEnvelope)
	if err == errUnusualEnvelope {
		c, err = r.decodeEntries(data, unmarshalEnvelope)
	}
	if err != nil {
		return nil, fmt.Errorf("registry decode: %w", err)
	}
	seen := make(map[string]bool, len(c.current))
	for _, d := range append(c.current, c.history...) {
		if d.err != nil {
			return nil, fmt.Errorf("registry decode: %w", d.err)
		}
	}
	for _, d := range c.current {
		name := d.ps.Schema.Name
		if seen[name] {
			return nil, fmt.Errorf("registry decode: schema %q already registered", name)
		}
		seen[name] = true
	}
	return c, nil
}

// decodeEntries runs one envelope decoder, handing each entry it emits
// to the worker pool, and waits for the pool.
func (r *Registry) decodeEntries(data []byte, envelope func([]byte, func(bool, *decodedEntry), *snapshotContent) error) (*snapshotContent, error) {
	c := &snapshotContent{}
	pool := newWorkPool(0)
	err := envelope(data, func(history bool, d *decodedEntry) {
		if history {
			c.history = append(c.history, d)
		} else {
			c.current = append(c.current, d)
		}
		pool.submit(func() { r.prepareEntry(d, history) })
	}, c)
	pool.wait()
	return c, err
}

// prepareEntry decodes one entry's metadata, parses its schema and
// prepares it: for admission (a current version, whose raw bytes are its
// journal payload) or as a chain entry (a superseded one).
func (r *Registry) prepareEntry(d *decodedEntry, history bool) {
	if d.meta != nil {
		if d.err = d.decodeMeta(); d.err != nil {
			return
		}
	}
	s, err := schema.ParseJSON(d.pe.Schema)
	if err != nil {
		d.err = err
		return
	}
	if !history {
		d.ps, d.err = r.prepareSchema(s, d.pe.Schema, d.pe.Steward, d.pe.Tags)
		return
	}
	d.e = &Entry{
		Schema:      s,
		Steward:     d.pe.Steward,
		Tags:        d.pe.Tags,
		Registered:  d.pe.Registered,
		Stats:       s.ComputeStats(),
		Fingerprint: s.Fingerprint(),
		Version:     max(d.pe.Version, 1),
	}
}

// unmarshalEnvelope is the encoding/json envelope decoder: the whole
// document first, then every entry to the workers.
func unmarshalEnvelope(data []byte, emit func(bool, *decodedEntry), c *snapshotContent) error {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	for _, pe := range p.Schemas {
		emit(false, &decodedEntry{pe: pe})
	}
	for _, pe := range p.History {
		emit(true, &decodedEntry{pe: pe})
	}
	c.matches, c.nextID = p.Matches, p.NextID
	return nil
}
