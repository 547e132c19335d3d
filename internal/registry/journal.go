package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"harmony/internal/schema"
	"harmony/internal/search"
)

// ErrNotJournaled marks a mutation that was applied in memory but whose
// journal commit failed: the state is live in this process yet will not
// survive a crash. Callers distinguish it (errors.Is) from validation
// errors — the mutation did happen, so a retry would hit duplicate
// checks; the right reaction is surfacing the durability failure, not
// retrying.
var ErrNotJournaled = errors.New("not journaled")

// The journal layer makes the registry event-sourced: every mutation emits
// a typed operation through a Journal, so a durable store (internal/store)
// can append it to a write-ahead log before — in log order — it becomes
// visible to a crash recovery. A nil journal preserves the registry's
// historical in-memory behavior, so library users who never wire a store
// pay nothing.
//
// Ops are replayable: Apply reconstructs the exact mutation from the
// recorded payload (assigned IDs, registration times and version numbers
// included), so snapshot-load + op replay is deterministic.

// OpKind names one registry mutation type.
type OpKind string

// Operation kinds. Schema replace is journaled as OpSchemaVersion
// (ReplaceSchema is AddVersion without the report), and an upgrade
// (AddVersionIf, driven by evolve.Upgrade) is one record holding its
// OpSchemaVersion followed by one OpMatchUpdate per migrated artifact.
const (
	OpSchemaAdd     OpKind = "schema-add"
	OpSchemaVersion OpKind = "schema-version"
	OpSchemaDelete  OpKind = "schema-delete"
	OpMatchAdd      OpKind = "match-add"
	OpMatchUpdate   OpKind = "match-update"
)

// Op is one journaled registry mutation, self-contained and
// JSON-serializable. Exactly one payload group is populated, selected by
// Kind: schema ops carry the schema in the JSON interchange format plus
// catalog metadata, delete carries the name, match ops carry the full
// artifact (with its assigned ID).
type Op struct {
	Kind OpKind `json:"kind"`

	// Schema / Steward / Tags / Registered / Version describe a
	// schema-add or schema-version mutation.
	Schema     json.RawMessage `json:"schema,omitempty"`
	Steward    string          `json:"steward,omitempty"`
	Tags       []string        `json:"tags,omitempty"`
	Registered time.Time       `json:"registered,omitzero"`
	Version    int             `json:"version,omitempty"`

	// Name is the schema-delete target.
	Name string `json:"name,omitempty"`

	// Artifact is the match-add / match-update payload.
	Artifact *MatchArtifact `json:"artifact,omitempty"`
}

// Journal receives registry mutations as they are applied. CommitAsync
// is called with the registry write lock held — every mutation emits its
// ops from one critical section, so log order always equals apply order
// — and must establish the record's position in the log before it
// returns. The ops persist as one atomic record: after a crash, either
// the whole record replays or none of it does. The returned wait blocks
// until the record is durable (per the journal's fsync policy), and
// mutators call it AFTER releasing the write lock: the fsync leaves the
// registry's critical section, and concurrent commits waiting together is
// what lets a group-committing WAL coalesce them into one fsync. A failed
// commit does not roll back the in-memory mutation; the journal
// implementation is expected to retain the error for health reporting
// (see store.Stats.LastError).
type Journal interface {
	CommitAsync(ops []Op) func() error
}

// AsyncJournal is Journal under its former name; removed with the next
// benchmark refresh. It remains only because the benchmark (perfbench)
// asserts that its journal implements it.
type AsyncJournal = Journal

// BatchLocker has no reader; removed with the next benchmark refresh. The
// registry commits every mutation from one critical section, so no open
// batch exists for a snapshot to slice through; the type remains only
// because the benchmark (perfbench) asserts that its journal implements it.
type BatchLocker interface {
	LockBatch()
	UnlockBatch()
}

// SetJournal attaches (or, with nil, detaches) the mutation journal.
// Attach before the first mutation that must be durable; ops applied while
// no journal is attached are not recorded anywhere.
func (r *Registry) SetJournal(j Journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = j
}

// emitLocked hands one mutation's ops to the journal as one record;
// callers hold the write lock and call the returned wait (when non-nil)
// AFTER releasing it. The wait's error is surfaced by the mutator: the
// in-memory mutation has already happened, but the caller must not be
// told a durable write succeeded when it did not — under
// fsync-per-commit, "returned without error" is the durability contract.
func (r *Registry) emitLocked(ops ...Op) (wait func() error) {
	if r.journal == nil || len(ops) == 0 {
		return nil
	}
	return r.journal.CommitAsync(ops)
}

// Apply replays journaled ops into the registry without re-journaling or
// re-validating them — the write half of crash recovery and of a
// follower's log shipping. Ops must arrive in their original commit
// order on a registry whose state matches the point just before they were
// first applied (a snapshot); anything else is reported as corruption.
// A record's schema ops are parsed and prepared (stats, fingerprint,
// index documents) outside the lock on GOMAXPROCS workers, so the lock
// covers only map updates. Their index merge checks are deferred like
// AddPrepared's: a follower calls FlushIndex after each record, and
// store.Open builds the index once when replay ends.
func (r *Registry) Apply(ops []Op) error {
	prepared, errs := r.prepareOps(ops)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range ops {
		if errs[i] != nil {
			return fmt.Errorf("registry replay: %s: %w", ops[i].Kind, errs[i])
		}
		if err := r.applyLocked(&ops[i], prepared[i]); err != nil {
			return err
		}
	}
	return nil
}

// prepareOps parses and prepares a record's schema ops, on a worker pool
// when there are several; each op's payload is the schema's journal
// payload already.
func (r *Registry) prepareOps(ops []Op) ([]*PreparedSchema, []error) {
	prepared := make([]*PreparedSchema, len(ops))
	errs := make([]error, len(ops))
	var todo []int
	for i := range ops {
		if ops[i].Kind == OpSchemaAdd || ops[i].Kind == OpSchemaVersion {
			todo = append(todo, i)
		}
	}
	prepare := func(i int) {
		op := &ops[i]
		s, err := schema.ParseJSON(op.Schema)
		if err != nil {
			errs[i] = err
			return
		}
		prepared[i], errs[i] = r.prepareSchema(s, op.Schema, op.Steward, op.Tags)
	}
	if len(todo) < 2 {
		for _, i := range todo {
			prepare(i)
		}
		return prepared, errs
	}
	pool := newWorkPool(len(todo))
	for _, i := range todo {
		pool.submit(func() { prepare(i) })
	}
	pool.wait()
	return prepared, errs
}

// applyLocked applies one op; ps is its prepared schema for schema ops.
func (r *Registry) applyLocked(op *Op, ps *PreparedSchema) error {
	switch op.Kind {
	case OpSchemaAdd:
		name := ps.Schema.Name
		if _, dup := r.entries[name]; dup {
			return fmt.Errorf("registry replay: schema %q already registered", name)
		}
		r.entries[name] = opEntry(ps, op)
		r.index.AddPrepared([]*search.PreparedDoc{ps.pd})
		return nil

	case OpSchemaVersion:
		name := ps.Schema.Name
		if prev := r.entries[name]; prev != nil {
			chain := append(r.history[name], prev)
			if len(chain) > maxHistory {
				chain = chain[len(chain)-maxHistory:]
			}
			r.history[name] = chain
		}
		r.entries[name] = opEntry(ps, op)
		r.index.AddPrepared([]*search.PreparedDoc{ps.pd})
		return nil

	case OpSchemaDelete:
		if _, ok := r.entries[op.Name]; !ok {
			return fmt.Errorf("registry replay: schema %q not registered", op.Name)
		}
		r.removeSchemaLocked(op.Name)
		return nil

	case OpMatchAdd:
		if op.Artifact == nil || op.Artifact.ID == "" {
			return fmt.Errorf("registry replay: %s without artifact", op.Kind)
		}
		if _, dup := r.matches[op.Artifact.ID]; dup {
			return fmt.Errorf("registry replay: artifact %q already stored", op.Artifact.ID)
		}
		stored := *op.Artifact
		r.putMatchLocked(&stored)
		var n int
		if _, err := fmt.Sscanf(stored.ID, "match-%d", &n); err == nil && n > r.nextID {
			r.nextID = n
		}
		return nil

	case OpMatchUpdate:
		if op.Artifact == nil || op.Artifact.ID == "" {
			return fmt.Errorf("registry replay: %s without artifact", op.Kind)
		}
		if _, ok := r.matches[op.Artifact.ID]; !ok {
			return fmt.Errorf("registry replay: no artifact %q to update", op.Artifact.ID)
		}
		stored := *op.Artifact
		r.putMatchLocked(&stored)
		return nil
	}
	return fmt.Errorf("registry replay: unknown op kind %q", op.Kind)
}

// opEntry rebuilds a catalog entry from a schema op's recorded metadata.
func opEntry(ps *PreparedSchema, op *Op) *Entry {
	return &Entry{
		Schema:      ps.Schema,
		Steward:     op.Steward,
		Tags:        op.Tags,
		Registered:  op.Registered,
		Stats:       ps.pc.stats,
		Fingerprint: ps.pc.fp,
		Version:     max(op.Version, 1),
	}
}

// schemaOp shapes a registered entry into its journal op. raw is the
// schema's JSON payload, marshaled by the caller — outside the write lock
// on the hot paths; the payload is O(one schema), the delta being
// persisted, not O(corpus).
func schemaOp(kind OpKind, raw json.RawMessage, e *Entry) Op {
	return Op{
		Kind:       kind,
		Schema:     raw,
		Steward:    e.Steward,
		Tags:       e.Tags,
		Registered: e.Registered,
		Version:    e.Version,
	}
}
