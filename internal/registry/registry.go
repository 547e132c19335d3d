// Package registry implements an enterprise metadata repository, the
// paper's final research direction: "Large enterprises can have hundreds to
// thousands of schemata, illustrating the need to manage schemata as data
// themselves. A schema (metadata) repository is an appropriate context in
// which to cluster schemata, to summarize them, to search for match
// candidates and to store resulting match information."
//
// Unlike the commercial repository tools the paper criticizes, this one
// treats schema matches as first-class knowledge artifacts with provenance
// ("who said that X is the same as Y, and should I trust that assertion in
// my application?") and context-dependence ("a match that supports search
// may not have sufficient precision to support a business intelligence
// application").
//
// The registry is an embedded, concurrency-safe store with JSON
// persistence and an integrated search index.
package registry

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"harmony/internal/schema"
	"harmony/internal/search"
)

// Context declares the intended use of a match artifact; trust is
// context-dependent.
type Context string

// Standard match contexts, ordered roughly by required precision.
const (
	ContextSearch        Context = "search"                // discovery and ranking
	ContextPlanning      Context = "planning"              // effort estimation, feasibility
	ContextIntegration   Context = "integration"           // mapping development
	ContextBusinessIntel Context = "business-intelligence" // query answering
)

// ValidationStatus tracks the human review state of one asserted match.
type ValidationStatus string

// Validation states.
const (
	StatusProposed ValidationStatus = "proposed"
	StatusAccepted ValidationStatus = "accepted"
	StatusRejected ValidationStatus = "rejected"
)

// Annotation is the optional semantic refinement of a correspondence the
// case study's engineers recorded ("with additional semantics such as
// is-a or part-of").
type Annotation string

// Standard annotations.
const (
	AnnEquivalent Annotation = "equivalent"
	AnnIsA        Annotation = "is-a"
	AnnPartOf     Annotation = "part-of"
	AnnRelated    Annotation = "related"
)

// AssertedMatch is one element-level correspondence inside a match
// artifact.
type AssertedMatch struct {
	PathA, PathB string
	Score        float64
	Status       ValidationStatus
	Annotation   Annotation
	ValidatedBy  string
	// Note carries machine-readable pair provenance beyond the review
	// fields; the evolution layer stamps re-pathed pairs with
	// "migrated-from=<old-path>" and fresh re-match proposals with
	// "rematch=evolve", so an auditor can tell a surviving human decision
	// from a machine-proposed one after a schema version bump.
	Note string `json:",omitempty"`
}

// Provenance records who created a match artifact, with what, and when.
type Provenance struct {
	CreatedBy string
	Tool      string
	CreatedAt time.Time
	Notes     string
}

// MatchArtifact is a stored schema match: the knowledge artifact the paper
// says "other developers should be able to benefit from".
type MatchArtifact struct {
	ID               string
	SchemaA, SchemaB string
	Context          Context
	Provenance       Provenance
	Pairs            []AssertedMatch
}

// AcceptedPairs returns the subset of pairs a human accepted.
func (ma *MatchArtifact) AcceptedPairs() []AssertedMatch {
	var out []AssertedMatch
	for _, p := range ma.Pairs {
		if p.Status == StatusAccepted {
			out = append(out, p)
		}
	}
	return out
}

// Entry is one registered schema version with catalog metadata.
type Entry struct {
	Schema     *schema.Schema
	Steward    string
	Tags       []string
	Registered time.Time
	Stats      schema.Stats
	// Fingerprint is the content-addressed hash of the schema's element
	// forest (schema.Schema.Fingerprint), computed at registration. The
	// service layer keys its match cache on it, so stored match artifacts
	// can be reused as long as the schema content is unchanged.
	Fingerprint string
	// Version numbers this entry within its schema's version chain,
	// starting at 1. AddVersion bumps it; only the highest version is
	// current (searchable, matchable); superseded versions remain readable
	// through Versions for diffing and audit.
	Version int
}

// maxHistory bounds the superseded versions kept per schema; beyond it the
// oldest is dropped. Version chains exist for diffing and audit, not as an
// archive — a daemon bumping a schema hourly must not grow without bound.
const maxHistory = 8

// Registry is the repository. Construct with New; safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// history holds each schema's superseded versions, oldest first. The
	// current version lives in entries only.
	history map[string][]*Entry
	matches map[string]*MatchArtifact
	// involving indexes matches by the schema names on their sides, so
	// per-schema lookups (dedup, reuse setup, schema removal) touch only
	// that schema's artifacts, however many are stored. putMatchLocked
	// and dropMatchLocked keep it in step with matches.
	involving map[string]map[string]*MatchArtifact
	index     *search.Index
	nextID    int
	now       func() time.Time

	// journal receives every mutation as a typed op (nil = in-memory
	// only); batchMu serializes Batch calls, whose ops accumulate in
	// pending until the batch commits as one record.
	journal  Journal
	batchMu  sync.Mutex
	batching bool
	pending  []Op
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		entries:   make(map[string]*Entry),
		history:   make(map[string][]*Entry),
		matches:   make(map[string]*MatchArtifact),
		involving: make(map[string]map[string]*MatchArtifact),
		index:     search.NewIndex(),
		now:       time.Now,
	}
}

// putMatchLocked stores an artifact, replacing any stored under the same
// ID, and indexes it under both sides; callers hold the write lock.
func (r *Registry) putMatchLocked(ma *MatchArtifact) {
	if old, ok := r.matches[ma.ID]; ok {
		r.dropMatchLocked(old)
	}
	r.matches[ma.ID] = ma
	for _, name := range [2]string{ma.SchemaA, ma.SchemaB} {
		set := r.involving[name]
		if set == nil {
			set = make(map[string]*MatchArtifact)
			r.involving[name] = set
		}
		set[ma.ID] = ma
	}
}

// dropMatchLocked deletes an artifact and its index entries; callers
// hold the write lock.
func (r *Registry) dropMatchLocked(ma *MatchArtifact) {
	delete(r.matches, ma.ID)
	for _, name := range [2]string{ma.SchemaA, ma.SchemaB} {
		if set := r.involving[name]; set != nil {
			delete(set, ma.ID)
			if len(set) == 0 {
				delete(r.involving, name)
			}
		}
	}
}

// sortedByID returns a set's artifacts sorted by ID, keeping only those
// keep accepts.
func sortedByID(set map[string]*MatchArtifact, keep func(*MatchArtifact) bool) []*MatchArtifact {
	var out []*MatchArtifact
	for _, ma := range set {
		if keep(ma) {
			out = append(out, ma)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// preparedContent is the expensive, lock-free part of registering one
// schema: stats, fingerprint and (when a journal is attached) the
// serialized journal payload.
type preparedContent struct {
	stats schema.Stats
	fp    string
	raw   json.RawMessage
}

// prepareContent computes a schema's stats, fingerprint and journal
// payload without holding the write lock — these are pure functions of
// the schema, so the critical section shrinks to map inserts and an O(1)
// journal enqueue.
func (r *Registry) prepareContent(s *schema.Schema) (preparedContent, error) {
	pc := preparedContent{stats: s.ComputeStats(), fp: s.Fingerprint()}
	r.mu.RLock()
	journaled := r.journal != nil
	r.mu.RUnlock()
	if journaled {
		raw, err := json.Marshal(s)
		if err != nil {
			return pc, err
		}
		pc.raw = raw
	}
	return pc, nil
}

// ensureRawLocked covers the rare race where a journal was attached
// between prepareContent and the write lock: the payload is marshaled
// under the lock, as it historically was.
func (r *Registry) ensureRawLocked(pc *preparedContent, s *schema.Schema) error {
	if r.journal == nil || pc.raw != nil {
		return nil
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return err
	}
	pc.raw = raw
	return nil
}

// AddSchema registers a schema under its name with catalog metadata. It
// fails if the name is already registered (use ReplaceSchema to update).
func (r *Registry) AddSchema(s *schema.Schema, steward string, tags ...string) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("registry: schema must be non-nil and named")
	}
	pc, err := r.prepareContent(s)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	pd := search.Prepare(s)
	r.mu.Lock()
	if _, dup := r.entries[s.Name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("registry: schema %q already registered", s.Name)
	}
	if err := r.ensureRawLocked(&pc, s); err != nil {
		r.mu.Unlock()
		return fmt.Errorf("registry: %w", err)
	}
	e := &Entry{
		Schema:      s,
		Steward:     steward,
		Tags:        append([]string(nil), tags...),
		Registered:  r.now(),
		Stats:       pc.stats,
		Fingerprint: pc.fp,
		Version:     1,
	}
	r.entries[s.Name] = e
	r.index.AddDoc(pd)
	var wait func() error
	if r.journal != nil {
		wait = r.emitLocked(schemaOp(OpSchemaAdd, pc.raw, e))
	}
	r.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("registry: schema %q registered in memory but %w: %w", s.Name, ErrNotJournaled, err)
		}
	}
	return nil
}

// PreparedSchema is one schema's admission-ready form: the parsed schema
// plus everything expensive about registering it (stats, fingerprint,
// journal payload, compiled index documents), computed outside the
// registry lock by PrepareSchema. A PreparedSchema is single-use — its
// index documents may be added to exactly one index, exactly once.
type PreparedSchema struct {
	Schema  *schema.Schema
	Steward string
	Tags    []string

	pc preparedContent
	pd *search.PreparedDoc
}

// PrepareSchema runs the lock-free half of AddSchema for one schema. Bulk
// ingest workers call it in parallel; AddPrepared then admits a whole
// batch under one lock acquisition and one journal record.
func (r *Registry) PrepareSchema(s *schema.Schema, steward string, tags ...string) (*PreparedSchema, error) {
	return r.prepareSchema(s, nil, steward, tags)
}

// PrepareSchemaRaw is PrepareSchema for callers that already hold the
// schema's serialized JSON — a bulk ingest line is exactly the journal
// payload, so re-marshaling it is pure waste. raw must parse back to s;
// it becomes the journal record's payload verbatim.
func (r *Registry) PrepareSchemaRaw(s *schema.Schema, raw json.RawMessage, steward string, tags ...string) (*PreparedSchema, error) {
	return r.prepareSchema(s, raw, steward, tags)
}

func (r *Registry) prepareSchema(s *schema.Schema, raw json.RawMessage, steward string, tags []string) (*PreparedSchema, error) {
	if s == nil || s.Name == "" {
		return nil, fmt.Errorf("registry: schema must be non-nil and named")
	}
	var pc preparedContent
	var err error
	if raw != nil {
		pc = preparedContent{stats: s.ComputeStats(), fp: s.Fingerprint(), raw: raw}
	} else if pc, err = r.prepareContent(s); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &PreparedSchema{
		Schema:  s,
		Steward: steward,
		Tags:    append([]string(nil), tags...),
		pc:      pc,
		pd:      search.Prepare(s),
	}, nil
}

// AddPrepared admits a batch of prepared schemata under one lock
// acquisition and one journal record. Per-schema validation failures
// (duplicate name, duplicate within the batch) reject that schema only;
// errs[i] reports schema i's outcome and added counts the admissions.
// Index merge checks are deferred — a bulk stream calls FlushIndex once
// at the end instead of paying a merge decision per batch. The journal
// record covers exactly the admitted subset; like every mutator, a
// journaling failure leaves the batch live in memory and is reported
// wrapped in ErrNotJournaled (on every admitted schema's errs slot).
func (r *Registry) AddPrepared(batch []*PreparedSchema) (added int, errs []error) {
	errs = make([]error, len(batch))
	ops := make([]Op, 0, len(batch))
	admitted := make([]int, 0, len(batch))
	docs := make([]*search.PreparedDoc, 0, len(batch))
	r.mu.Lock()
	for i, ps := range batch {
		if ps == nil {
			errs[i] = fmt.Errorf("registry: nil prepared schema")
			continue
		}
		name := ps.Schema.Name
		if _, dup := r.entries[name]; dup {
			errs[i] = fmt.Errorf("registry: schema %q already registered", name)
			continue
		}
		if err := r.ensureRawLocked(&ps.pc, ps.Schema); err != nil {
			errs[i] = fmt.Errorf("registry: %w", err)
			continue
		}
		e := &Entry{
			Schema:      ps.Schema,
			Steward:     ps.Steward,
			Tags:        ps.Tags,
			Registered:  r.now(),
			Stats:       ps.pc.stats,
			Fingerprint: ps.pc.fp,
			Version:     1,
		}
		r.entries[name] = e
		docs = append(docs, ps.pd)
		if r.journal != nil {
			ops = append(ops, schemaOp(OpSchemaAdd, ps.pc.raw, e))
		}
		admitted = append(admitted, i)
	}
	r.index.AddPrepared(docs)
	wait := r.emitLocked(ops...)
	r.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			for _, i := range admitted {
				errs[i] = fmt.Errorf("registry: schema %q registered in memory but %w: %w",
					batch[i].Schema.Name, ErrNotJournaled, err)
			}
			return len(admitted), errs
		}
	}
	return len(admitted), errs
}

// AddSchemas registers a batch of schemata with shared metadata:
// preparation (stats, fingerprints, journal payloads, index documents)
// runs outside the lock, then the whole batch is admitted through
// AddPrepared. Sequential convenience over the same path bulk ingest
// drives concurrently.
func (r *Registry) AddSchemas(ss []*schema.Schema, steward string, tags ...string) (added int, errs []error) {
	batch := make([]*PreparedSchema, len(ss))
	prepErr := make([]error, len(ss))
	for i, s := range ss {
		batch[i], prepErr[i] = r.PrepareSchema(s, steward, tags...)
	}
	added, errs = r.AddPrepared(batch)
	for i, err := range prepErr {
		if err != nil {
			errs[i] = err
		}
	}
	return added, errs
}

// FlushIndex runs the search-index merge checks that batch admission
// (AddPrepared) defers, kicking off a background merge if either posting
// space is past its threshold. Call once when a bulk stream ends.
func (r *Registry) FlushIndex() {
	r.index.MaybeMerge()
}

// VersionBump reports one AddVersion outcome: the superseded entry (nil
// when the schema was not previously registered) and the new current one.
type VersionBump struct {
	Prev *Entry
	Curr *Entry
}

// AddVersion registers the next version of a schema: the current entry is
// pushed onto the version chain (bounded to maxHistory superseded
// versions) and the new content becomes current, with its search-index
// documents and fingerprint updated incrementally — only this schema's
// postings are touched. Match artifacts referencing the schema are kept
// as-is; the evolution layer (internal/evolve) migrates them through the
// structural diff. A schema not yet registered starts its chain at
// version 1.
func (r *Registry) AddVersion(s *schema.Schema, steward string, tags ...string) (*VersionBump, error) {
	if s == nil || s.Name == "" {
		return nil, fmt.Errorf("registry: schema must be non-nil and named")
	}
	pc, err := r.prepareContent(s)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	pd := search.Prepare(s)
	r.mu.Lock()
	bump, wait, err := r.addVersionLocked(s, steward, tags, pc, pd)
	r.mu.Unlock()
	return finishVersion(s, bump, wait, err)
}

// finishVersion runs a version bump's deferred durability wait (outside
// the write lock) and shapes the result.
func finishVersion(s *schema.Schema, bump *VersionBump, wait func() error, err error) (*VersionBump, error) {
	if err != nil {
		return bump, err
	}
	if wait != nil {
		if werr := wait(); werr != nil {
			return bump, fmt.Errorf("registry: schema %q version-bumped in memory but %w: %w", s.Name, ErrNotJournaled, werr)
		}
	}
	return bump, nil
}

// AddVersionIf is AddVersion under optimistic concurrency: the bump
// applies only when the schema is currently registered and its fingerprint
// still equals expect — the fingerprint the caller computed its diff
// against. A conflict (schema removed, or bumped by someone else in
// between) returns an error with the registry unchanged, so a stale diff
// can never migrate artifacts against the wrong base version.
func (r *Registry) AddVersionIf(s *schema.Schema, expect, steward string, tags ...string) (*VersionBump, error) {
	if s == nil || s.Name == "" {
		return nil, fmt.Errorf("registry: schema must be non-nil and named")
	}
	// Prepared before the lock (and wasted on a conflict — the cheap
	// outcome); the fingerprint check itself still runs under the lock.
	pc, err := r.prepareContent(s)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	pd := search.Prepare(s)
	r.mu.Lock()
	prev := r.entries[s.Name]
	if prev == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: schema %q no longer registered", s.Name)
	}
	if prev.Fingerprint != expect {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: schema %q changed concurrently (fingerprint %s, expected %s)",
			s.Name, prev.Fingerprint, expect)
	}
	bump, wait, err := r.addVersionLocked(s, steward, tags, pc, pd)
	r.mu.Unlock()
	return finishVersion(s, bump, wait, err)
}

// addVersionLocked implements the version bump; callers hold the lock,
// pass in the lock-free preparation, and run the returned wait (the
// journal durability acknowledgment) after releasing it.
func (r *Registry) addVersionLocked(s *schema.Schema, steward string, tags []string, pc preparedContent, pd *search.PreparedDoc) (*VersionBump, func() error, error) {
	if err := r.ensureRawLocked(&pc, s); err != nil {
		return nil, nil, fmt.Errorf("registry: %w", err)
	}
	prev := r.entries[s.Name]
	version := 1
	if prev != nil {
		version = prev.Version + 1
	}
	curr := &Entry{
		Schema:      s,
		Steward:     steward,
		Tags:        append([]string(nil), tags...),
		Registered:  r.now(),
		Stats:       pc.stats,
		Fingerprint: pc.fp,
		Version:     version,
	}
	if prev != nil {
		chain := append(r.history[s.Name], prev)
		if len(chain) > maxHistory {
			chain = chain[len(chain)-maxHistory:]
		}
		r.history[s.Name] = chain
	}
	r.entries[s.Name] = curr
	r.index.AddDoc(pd)
	bump := &VersionBump{Prev: prev, Curr: curr}
	var wait func() error
	if r.journal != nil {
		wait = r.emitLocked(schemaOp(OpSchemaVersion, pc.raw, curr))
	}
	return bump, wait, nil
}

// ReplaceSchema updates a registered schema in place, keeping its match
// artifacts (they may now dangle; ValidateArtifacts reports those, and
// evolve.Upgrade migrates them). It is AddVersion without the report.
func (r *Registry) ReplaceSchema(s *schema.Schema, steward string, tags ...string) {
	_, _ = r.AddVersion(s, steward, tags...)
}

// Versions returns a schema's full version chain, oldest first, ending
// with the current entry. It returns nil for unknown names.
func (r *Registry) Versions(name string) []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cur, ok := r.entries[name]
	if !ok {
		return nil
	}
	out := append([]*Entry(nil), r.history[name]...)
	return append(out, cur)
}

// SchemaVersion returns one specific version of a schema's chain.
func (r *Registry) SchemaVersion(name string, version int) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if cur, ok := r.entries[name]; ok && cur.Version == version {
		return cur, true
	}
	for _, e := range r.history[name] {
		if e.Version == version {
			return e, true
		}
	}
	return nil, false
}

// RemoveSchema unregisters a schema — its whole version chain — and
// deletes the match artifacts that reference it. It returns the number of
// artifacts removed.
// It also reports a journaling failure: the removal stands in memory,
// but under a journal the caller must know when it did not reach the
// log (the schema would resurrect on crash recovery).
func (r *Registry) RemoveSchema(name string) (int, error) {
	r.mu.Lock()
	_, existed := r.entries[name]
	removed := r.removeSchemaLocked(name)
	var wait func() error
	if existed {
		wait = r.emitLocked(Op{Kind: OpSchemaDelete, Name: name})
	}
	r.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return removed, fmt.Errorf("registry: schema %q removed in memory but %w: %w", name, ErrNotJournaled, err)
		}
	}
	return removed, nil
}

// removeSchemaLocked drops a schema's version chain, index documents and
// referencing artifacts; callers hold the write lock.
func (r *Registry) removeSchemaLocked(name string) int {
	delete(r.entries, name)
	delete(r.history, name)
	r.index.Remove(name)
	set := r.involving[name]
	removed := len(set)
	for _, ma := range set {
		r.dropMatchLocked(ma)
	}
	return removed
}

// Schema returns a registered entry.
func (r *Registry) Schema(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Schemas returns all registered schemata sorted by name.
func (r *Registry) Schemas() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Schema.Name < out[j].Schema.Name })
	return out
}

// Len returns the number of registered schemata.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// AddMatch stores a match artifact after validating that both schemata are
// registered, every referenced path exists, and scores are in (-1,1). It
// assigns and returns the artifact ID.
func (r *Registry) AddMatch(ma MatchArtifact) (string, error) {
	r.mu.Lock()
	ea, ok := r.entries[ma.SchemaA]
	if !ok {
		r.mu.Unlock()
		return "", fmt.Errorf("registry: schema %q not registered", ma.SchemaA)
	}
	eb, ok := r.entries[ma.SchemaB]
	if !ok {
		r.mu.Unlock()
		return "", fmt.Errorf("registry: schema %q not registered", ma.SchemaB)
	}
	for _, p := range ma.Pairs {
		if ea.Schema.ByPath(p.PathA) == nil {
			r.mu.Unlock()
			return "", fmt.Errorf("registry: path %q not in schema %q", p.PathA, ma.SchemaA)
		}
		if eb.Schema.ByPath(p.PathB) == nil {
			r.mu.Unlock()
			return "", fmt.Errorf("registry: path %q not in schema %q", p.PathB, ma.SchemaB)
		}
		if p.Score <= -1 || p.Score >= 1 {
			r.mu.Unlock()
			return "", fmt.Errorf("registry: score %f out of range for %q~%q", p.Score, p.PathA, p.PathB)
		}
	}
	if ma.Provenance.CreatedAt.IsZero() {
		ma.Provenance.CreatedAt = r.now()
	}
	if ma.Context == "" {
		ma.Context = ContextSearch
	}
	r.nextID++
	ma.ID = fmt.Sprintf("match-%06d", r.nextID)
	stored := ma
	r.putMatchLocked(&stored)
	wait := r.emitLocked(Op{Kind: OpMatchAdd, Artifact: &stored})
	r.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return stored.ID, fmt.Errorf("registry: artifact %s stored in memory but %w: %w", stored.ID, ErrNotJournaled, err)
		}
	}
	return stored.ID, nil
}

// UpdateMatch replaces a stored artifact in place, preserving its ID —
// the write half of artifact migration after a schema version bump. The
// replacement is validated like AddMatch: both schemata registered, every
// referenced path present in the *current* versions, scores in range.
func (r *Registry) UpdateMatch(id string, ma MatchArtifact) error {
	r.mu.Lock()
	if err := r.validateMatchLocked(id, &ma); err != nil {
		r.mu.Unlock()
		return err
	}
	ma.ID = id
	stored := ma
	r.putMatchLocked(&stored)
	wait := r.emitLocked(Op{Kind: OpMatchUpdate, Artifact: &stored})
	r.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("registry: artifact %s updated in memory but %w: %w", id, ErrNotJournaled, err)
		}
	}
	return nil
}

// validateMatchLocked checks an artifact replacement against the current
// schema versions; callers hold the write lock.
func (r *Registry) validateMatchLocked(id string, ma *MatchArtifact) error {
	if _, ok := r.matches[id]; !ok {
		return fmt.Errorf("registry: no artifact %q", id)
	}
	ea, ok := r.entries[ma.SchemaA]
	if !ok {
		return fmt.Errorf("registry: schema %q not registered", ma.SchemaA)
	}
	eb, ok := r.entries[ma.SchemaB]
	if !ok {
		return fmt.Errorf("registry: schema %q not registered", ma.SchemaB)
	}
	for _, p := range ma.Pairs {
		if ea.Schema.ByPath(p.PathA) == nil {
			return fmt.Errorf("registry: path %q not in schema %q", p.PathA, ma.SchemaA)
		}
		if eb.Schema.ByPath(p.PathB) == nil {
			return fmt.Errorf("registry: path %q not in schema %q", p.PathB, ma.SchemaB)
		}
		if p.Score <= -1 || p.Score >= 1 {
			return fmt.Errorf("registry: score %f out of range for %q~%q", p.Score, p.PathA, p.PathB)
		}
	}
	return nil
}

// Match returns a stored artifact by ID.
func (r *Registry) Match(id string) (*MatchArtifact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ma, ok := r.matches[id]
	return ma, ok
}

// Matches returns all artifacts sorted by ID.
func (r *Registry) Matches() []*MatchArtifact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*MatchArtifact, 0, len(r.matches))
	for _, ma := range r.matches {
		out = append(out, ma)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MatchCount returns the number of stored match artifacts.
func (r *Registry) MatchCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.matches)
}

// MatchesByTool returns the artifacts created by the named tool (exact
// Provenance.Tool match), sorted by ID. The service layer uses it to find
// its own previously persisted match results for cache warm-start.
func (r *Registry) MatchesByTool(tool string) []*MatchArtifact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*MatchArtifact
	for _, ma := range r.matches {
		if ma.Provenance.Tool == tool {
			out = append(out, ma)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MatchesInvolving returns the artifacts that reference the named schema
// on either side, sorted by ID. The corpus pipeline uses it to discover
// hub schemata for transitive mapping reuse.
func (r *Registry) MatchesInvolving(name string) []*MatchArtifact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedByID(r.involving[name], func(*MatchArtifact) bool { return true })
}

// IndexStats returns the search index occupancy (live and dead documents,
// posting entries) for operational monitoring.
func (r *Registry) IndexStats() search.Stats {
	return r.index.IndexStats()
}

// MatchesBetween returns the artifacts linking two schemata (either
// orientation), sorted by ID. It walks only the smaller side's artifacts.
func (r *Registry) MatchesBetween(a, b string) []*MatchArtifact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	set := r.involving[a]
	if other := r.involving[b]; len(other) < len(set) {
		set = other
	}
	return sortedByID(set, func(ma *MatchArtifact) bool {
		return (ma.SchemaA == a && ma.SchemaB == b) || (ma.SchemaA == b && ma.SchemaB == a)
	})
}

// contextRank orders contexts by the precision they demand.
var contextRank = map[Context]int{
	ContextSearch:        0,
	ContextPlanning:      1,
	ContextIntegration:   2,
	ContextBusinessIntel: 3,
}

// TrustedPairs implements the paper's context-dependent reuse question:
// return the accepted correspondences between two schemata whose artifact
// context is at least as demanding as the requested one. A match asserted
// for integration is trustworthy for search; the converse is not.
func (r *Registry) TrustedPairs(a, b string, atLeast Context) []AssertedMatch {
	need := contextRank[atLeast]
	var out []AssertedMatch
	for _, ma := range r.MatchesBetween(a, b) {
		if contextRank[ma.Context] < need {
			continue
		}
		flip := ma.SchemaA != a
		for _, p := range ma.AcceptedPairs() {
			if flip {
				p.PathA, p.PathB = p.PathB, p.PathA
			}
			out = append(out, p)
		}
	}
	return out
}

// SearchText ranks registered schemata against a free-text query.
func (r *Registry) SearchText(query string, k int) []search.Result {
	return r.index.SearchText(query, k)
}

// SearchSchema uses a schema as the query term over the registry.
func (r *Registry) SearchSchema(q *schema.Schema, k int) []search.Result {
	return r.index.SearchSchema(q, k)
}

// SearchSchemaInfo is SearchSchema with per-query execution info and an
// optional document-scoring budget (0 = exact): the corpus blocker's
// budget-driven early termination rides on it.
func (r *Registry) SearchSchemaInfo(q *schema.Schema, k, docBudget int) ([]search.Result, search.QueryInfo) {
	return r.index.SearchSchemaInfo(q, k, docBudget)
}

// TuneIndex adjusts the search index's tail-merge threshold (0 restores
// the default) — a deployment knob, not a per-query one.
func (r *Registry) TuneIndex(tailMerge int) {
	r.index.Tune(tailMerge)
}

// SearchFragments ranks top-level sub-trees of registered schemata.
func (r *Registry) SearchFragments(query string, k int) []search.Result {
	return r.index.SearchFragments(query, k)
}

// ValidateArtifacts re-checks every stored artifact against the current
// schema versions, returning descriptions of dangling references (e.g.
// after ReplaceSchema).
func (r *Registry) ValidateArtifacts() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var problems []string
	for _, ma := range r.matches {
		ea, okA := r.entries[ma.SchemaA]
		eb, okB := r.entries[ma.SchemaB]
		if !okA || !okB {
			problems = append(problems, fmt.Sprintf("%s: schema missing", ma.ID))
			continue
		}
		for _, p := range ma.Pairs {
			if ea.Schema.ByPath(p.PathA) == nil {
				problems = append(problems, fmt.Sprintf("%s: dangling path %s in %s", ma.ID, p.PathA, ma.SchemaA))
			}
			if eb.Schema.ByPath(p.PathB) == nil {
				problems = append(problems, fmt.Sprintf("%s: dangling path %s in %s", ma.ID, p.PathB, ma.SchemaB))
			}
		}
	}
	sort.Strings(problems)
	return problems
}
