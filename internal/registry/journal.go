package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"harmony/internal/schema"
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

// Journal receives registry mutations as they are applied. Commit is
// called with the registry write lock held — every mutation emits its ops
// from one critical section, so log order always equals apply order — and
// must persist the ops as one atomic record: after a crash, either the
// whole record replays or none of it does. A Commit error does not roll
// back the in-memory mutation; the journal implementation is expected to
// retain the error for health reporting (see store.Stats.LastError).
type Journal interface {
	Commit(ops []Op) error
}

// AsyncJournal is optionally implemented by journals that separate
// accepting a commit from making it durable. CommitAsync must establish
// the record's position in the log immediately — it is called with the
// registry write lock held, so log order equals apply order — and return
// a wait function that blocks until the record is durable (per the
// journal's fsync policy). Mutators call wait AFTER releasing the write
// lock: the fsync leaves the registry's critical section, and concurrent
// commits waiting together is what lets a group-committing WAL coalesce
// them into one fsync.
type AsyncJournal interface {
	Journal
	CommitAsync(ops []Op) func() error
}

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
// AFTER releasing it. An async journal establishes log position under the
// lock and defers the durability wait to outside it; a plain journal
// commits synchronously here. The wait's error is surfaced by the mutator:
// the in-memory mutation has already happened, but the caller must not be
// told a durable write succeeded when it did not — under
// fsync-per-commit, "returned without error" is the durability contract.
func (r *Registry) emitLocked(ops ...Op) (wait func() error) {
	if r.journal == nil || len(ops) == 0 {
		return nil
	}
	if aj, ok := r.journal.(AsyncJournal); ok {
		return aj.CommitAsync(ops)
	}
	if err := r.journal.Commit(ops); err != nil {
		return func() error { return err }
	}
	return nil
}

// Apply replays journaled ops into the registry without re-journaling or
// re-validating them — the write half of crash recovery. Ops must arrive
// in their original commit order on a registry whose state matches the
// point just before they were first applied (a snapshot); anything else is
// reported as corruption.
func (r *Registry) Apply(ops []Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range ops {
		if err := r.applyLocked(&ops[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *Registry) applyLocked(op *Op) error {
	switch op.Kind {
	case OpSchemaAdd:
		s, err := schema.ParseJSON(op.Schema)
		if err != nil {
			return fmt.Errorf("registry replay: %s: %w", op.Kind, err)
		}
		if _, dup := r.entries[s.Name]; dup {
			return fmt.Errorf("registry replay: schema %q already registered", s.Name)
		}
		r.entries[s.Name] = opEntry(s, op)
		r.index.Add(s)
		return nil

	case OpSchemaVersion:
		s, err := schema.ParseJSON(op.Schema)
		if err != nil {
			return fmt.Errorf("registry replay: %s: %w", op.Kind, err)
		}
		if prev := r.entries[s.Name]; prev != nil {
			chain := append(r.history[s.Name], prev)
			if len(chain) > maxHistory {
				chain = chain[len(chain)-maxHistory:]
			}
			r.history[s.Name] = chain
		}
		r.entries[s.Name] = opEntry(s, op)
		r.index.Add(s)
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
func opEntry(s *schema.Schema, op *Op) *Entry {
	version := op.Version
	if version < 1 {
		version = 1
	}
	return &Entry{
		Schema:      s,
		Steward:     op.Steward,
		Tags:        op.Tags,
		Registered:  op.Registered,
		Stats:       s.ComputeStats(),
		Fingerprint: s.Fingerprint(),
		Version:     version,
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
