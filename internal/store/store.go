// Package store is the registry's durable storage engine: an
// event-sourced write-ahead log plus snapshot store, the only way a
// registry is saved or loaded. The paper's durable enterprise asset is
// the repository of schemas and human-validated mappings — so every
// accepted mutation is appended to a segmented, CRC-checksummed WAL
// (O(delta) per mutation) before the next crash can see it, snapshots
// bound replay time, and recovery is snapshot-load + WAL replay
// tolerating a torn tail record.
//
// The store plugs into the registry through its journal interface: Open
// recovers the registry from disk and attaches itself, after which every
// registry mutation — schema add/version/replace/delete, match
// add/update, and the multi-op commit batch of a schema upgrade — is
// durable under the configured fsync policy. Library users who never
// open a store keep the registry's historical in-memory behavior.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"harmony/internal/registry"
)

// FsyncPolicy says when appended WAL records reach stable storage.
type FsyncPolicy string

const (
	// FsyncPerCommit syncs after every commit: a mutation that returned
	// is durable. The default.
	FsyncPerCommit FsyncPolicy = "commit"
	// FsyncInterval syncs on a background cadence (Options.FsyncInterval):
	// bounded data loss, amortized cost.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs explicitly; durability is whenever the OS
	// flushes. Fastest, for workloads that can replay from elsewhere.
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy validates a policy string ("" means FsyncPerCommit).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncPerCommit, nil
	case FsyncPerCommit, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("store: unknown fsync policy %q (want commit, interval or off)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Fsync is the WAL durability policy (default FsyncPerCommit).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the WAL to a new segment beyond this size
	// (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery is the record-count threshold ShouldSnapshot uses to
	// suggest compaction (default 1024).
	SnapshotEvery int
	// Logf receives operational messages (nil for silence).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("store: Dir is required")
	}
	var err error
	if o.Fsync, err = ParseFsyncPolicy(string(o.Fsync)); err != nil {
		return o, err
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 1024
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// Stats is the store's operational snapshot, served by /v1/stats.
type Stats struct {
	Dir   string `json:"dir"`
	Fsync string `json:"fsync"`
	// LastLSN / SnapshotLSN locate the log head and the newest snapshot;
	// their difference is the replay debt a crash would pay.
	LastLSN              uint64 `json:"lastLSN"`
	SnapshotLSN          uint64 `json:"snapshotLSN"`
	RecordsSinceSnapshot uint64 `json:"recordsSinceSnapshot"`
	// DurableLSN is the highest LSN known to be on stable storage; under
	// fsync-per-commit it tracks LastLSN, under interval/off it trails.
	DurableLSN uint64 `json:"durableLSN"`
	// Pins counts connected replication cursors retaining WAL segments;
	// PinnedLSN is the oldest such cursor (compaction keeps records past
	// it until the follower catches up or its pin expires).
	Pins      int    `json:"pins,omitempty"`
	PinnedLSN uint64 `json:"pinnedLSN,omitempty"`
	// Commits / OpsCommitted / AppendedBytes / Syncs count journal work
	// since Open.
	Commits       uint64 `json:"commits"`
	OpsCommitted  uint64 `json:"opsCommitted"`
	AppendedBytes uint64 `json:"appendedBytes"`
	Syncs         uint64 `json:"syncs"`
	// Snapshots counts snapshots written since Open.
	Snapshots      uint64    `json:"snapshots"`
	LastSnapshotAt time.Time `json:"lastSnapshotAt,omitzero"`
	// Segments / SegmentBytes describe the live WAL.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segmentBytes"`
	// Replayed / RecoveredTornTail describe the last Open.
	Replayed          int  `json:"replayed"`
	RecoveredTornTail bool `json:"recoveredTornTail"`
	// LastError is the most recent persistence failure ("" when healthy);
	// /healthz degrades on it.
	LastError string `json:"lastError,omitempty"`
}

// Store is the durable engine bound to one registry. It implements
// registry.AsyncJournal. Construct with Open; safe for concurrent use.
type Store struct {
	opts Options
	reg  *registry.Registry
	wal  *wal

	// snapMu serializes snapshots and excludes them from a follower's
	// append+apply (LockBatch).
	snapMu sync.Mutex

	unlock func() // single-writer directory lock release

	mu           sync.Mutex
	pins         map[string]uint64 // replication cursors retaining segments
	snapshotLSN  uint64
	commits      uint64
	ops          uint64
	snapshots    uint64
	lastSnapAt   time.Time
	replayed     int
	tornTail     bool
	lastErr      error
	stopInterval chan struct{}
	intervalDone chan struct{}
	closed       bool
}

// Open recovers (or initializes) a store directory and returns the engine
// with its registry journal attached: load the newest decodable snapshot,
// replay every later WAL record — tolerating a torn tail — and continue
// the log from there. The snapshot and the WAL are the only way a
// registry is saved or loaded.
//
// Recovery is a bulk ingest. The snapshot's schemas are parsed and
// prepared on every core as its envelope streams by, and admitted in
// one batch (registry.DecodeSnapshot), which builds the search index's
// flat segments straight from their documents. Each WAL record's
// schemas are prepared in parallel outside the registry lock
// (registry.Apply), with the index's merges deferred; Open folds the
// replayed documents in once before it returns, so the first query
// after a restart meets a fully merged index.
func Open(opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Single-writer: two processes appending to one WAL would interleave
	// records with independent LSN counters and corrupt replay.
	unlock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			unlock()
		}
	}()
	removeStaleProfiles(opts.Dir, opts.Logf)
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	s := &Store{opts: opts}

	// Newest decodable snapshot wins; a corrupt one falls back to its
	// predecessor (the WAL still holds the delta, so nothing is lost).
	var reg *registry.Registry
	for _, lsn := range snaps {
		data, err := os.ReadFile(filepath.Join(opts.Dir, snapshotName(lsn)))
		if err == nil {
			if r, derr := registry.DecodeSnapshot(data); derr == nil {
				reg, s.snapshotLSN = r, lsn
				break
			} else {
				err = derr
			}
		}
		opts.Logf("store: snapshot %s unusable (%v), falling back", snapshotName(lsn), err)
	}
	if reg == nil {
		reg = registry.New()
		s.snapshotLSN = 0
	}

	res, err := replaySegments(opts.Dir, s.snapshotLSN, func(lsn uint64, payload []byte) error {
		var ops []registry.Op
		if err := json.Unmarshal(payload, &ops); err != nil {
			return fmt.Errorf("store: record %d: %w", lsn, err)
		}
		if err := reg.Apply(ops); err != nil {
			return fmt.Errorf("store: record %d: %w", lsn, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.replayed, s.tornTail = res.replayed, res.tornTail
	if res.tornTail {
		opts.Logf("store: truncated torn WAL tail after record %d", res.lastLSN)
	}
	if res.replayed > 0 {
		opts.Logf("store: replayed %d WAL records onto snapshot lsn %d", res.replayed, s.snapshotLSN)
	}
	reg.CompactIndex()

	w, err := openWAL(opts.Dir, opts.Fsync, opts.SegmentBytes, res.lastLSN, res.diskLSN)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.reg, s.wal, s.unlock = reg, w, unlock
	if opts.Fsync == FsyncInterval {
		s.stopInterval = make(chan struct{})
		s.intervalDone = make(chan struct{})
		go s.intervalSyncLoop()
	}
	reg.SetJournal(s)
	opened = true
	return s, nil
}

// Registry returns the recovered registry this store journals for.
func (s *Store) Registry() *registry.Registry { return s.reg }

// Commit implements registry.Journal: one atomic WAL record per batch.
func (s *Store) Commit(ops []registry.Op) error {
	return s.CommitAsync(ops)()
}

// CommitAsync implements registry.AsyncJournal: the ops are framed and
// enqueued to the WAL immediately — in call order, so log order still
// equals apply order — and the returned wait blocks until the record's
// group flush reaches stable storage (per the fsync policy). Callers
// release the registry write lock between enqueue and wait, which is the
// window where concurrent commits coalesce into one fsync.
func (s *Store) CommitAsync(ops []registry.Op) func() error {
	payload, err := registry.MarshalOps(ops)
	if err != nil {
		s.setErr(err)
		werr := fmt.Errorf("store: commit: %w", err)
		return func() error { return werr }
	}
	_, wait, err := s.wal.AppendAsync(payload)
	if err != nil {
		s.setErr(err)
		werr := fmt.Errorf("store: commit: %w", err)
		return func() error { return werr }
	}
	n := uint64(len(ops))
	return func() error {
		if err := wait(); err != nil {
			s.setErr(err)
			return fmt.Errorf("store: commit: %w", err)
		}
		s.mu.Lock()
		s.commits++
		s.ops += n
		s.lastErr = nil
		s.mu.Unlock()
		return nil
	}
}

// LockBatch / UnlockBatch bracket a follower's AppendReplicated and the
// registry apply of the same record: a snapshot taken between the two
// would pair registry state with a log position it does not match, and
// replay would then skip or double-apply the record.
func (s *Store) LockBatch()   { s.snapMu.Lock() }
func (s *Store) UnlockBatch() { s.snapMu.Unlock() }

// Snapshot writes a full-state snapshot at the current log position and
// compacts: WAL segments the snapshot covers are deleted and old
// snapshots pruned. The registry lock is held only for the pointer copy
// of the state; serialization and disk I/O run outside it, so matching
// traffic proceeds while the snapshot writes.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	var lsn uint64
	view := s.reg.SnapshotView(func() { lsn = s.wal.LastLSN() })
	s.mu.Lock()
	already := lsn == s.snapshotLSN && (s.snapshots > 0 || lsn > 0)
	s.mu.Unlock()
	if already {
		return nil
	}
	// The snapshot is named by the log head at view time, which may
	// include records still queued behind an in-flight group flush. They
	// must reach the segment files before the snapshot publishes: record
	// LSNs are positional, so a snapshot claiming records the files never
	// received would desynchronize replay numbering after a crash.
	if err := s.wal.WaitWritten(lsn); err != nil {
		s.setErr(err)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	t0 := time.Now()
	data, err := view.Encode()
	if err != nil {
		s.setErr(err)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := writeSnapshot(s.opts.Dir, lsn, data); err != nil {
		s.setErr(err)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	s.mu.Lock()
	s.snapshotLSN = lsn
	s.snapshots++
	s.lastSnapAt = time.Now()
	s.lastErr = nil
	s.mu.Unlock()
	if err := pruneSnapshots(s.opts.Dir); err != nil {
		s.opts.Logf("store: pruning snapshots: %v", err)
	}
	// Compact only through the OLDEST retained snapshot: the newer one's
	// fallback story requires the log delta between the two to survive,
	// or a corrupt newest snapshot would recover with a silent gap.
	floor := lsn
	if snaps, err := listSnapshots(s.opts.Dir); err == nil && len(snaps) > 0 {
		floor = snaps[len(snaps)-1]
	}
	// A connected follower's catch-up cursor pins the floor further: the
	// records it has not pulled yet must survive compaction, or the
	// follower would be forced into a full snapshot re-bootstrap.
	if pinned, ok := s.pinnedFloor(); ok && pinned < floor {
		floor = pinned
	}
	if _, err := s.wal.TruncateThrough(floor); err != nil {
		s.opts.Logf("store: compaction: %v", err)
	}
	snapshotSeconds.Observe(time.Since(t0).Seconds())
	s.opts.Logf("store: snapshot at lsn %d (%d bytes)", lsn, len(data))
	return nil
}

// RecordsSinceSnapshot is the replay debt a crash would pay right now.
func (s *Store) RecordsSinceSnapshot() uint64 {
	s.mu.Lock()
	snap := s.snapshotLSN
	s.mu.Unlock()
	last := s.wal.LastLSN()
	if last <= snap {
		return 0
	}
	return last - snap
}

// ShouldSnapshot reports whether the replay debt passed the configured
// compaction threshold (Options.SnapshotEvery).
func (s *Store) ShouldSnapshot() bool {
	return s.RecordsSinceSnapshot() >= uint64(s.opts.SnapshotEvery)
}

// Stats returns the operational snapshot.
func (s *Store) Stats() Stats {
	segs, segBytes := s.wal.Segments()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:               s.opts.Dir,
		Fsync:             string(s.opts.Fsync),
		LastLSN:           s.wal.LastLSN(),
		DurableLSN:        s.wal.DurableLSN(),
		SnapshotLSN:       s.snapshotLSN,
		Commits:           s.commits,
		OpsCommitted:      s.ops,
		Snapshots:         s.snapshots,
		LastSnapshotAt:    s.lastSnapAt,
		Segments:          segs,
		SegmentBytes:      segBytes,
		Replayed:          s.replayed,
		RecoveredTornTail: s.tornTail,
		Pins:              len(s.pins),
	}
	for _, lsn := range s.pins {
		if st.PinnedLSN == 0 || lsn < st.PinnedLSN {
			st.PinnedLSN = lsn
		}
	}
	s.wal.mu.Lock()
	st.AppendedBytes = s.wal.appendedBytes
	st.Syncs = s.wal.syncs
	s.wal.mu.Unlock()
	if st.LastLSN > st.SnapshotLSN {
		st.RecordsSinceSnapshot = st.LastLSN - st.SnapshotLSN
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// LastError returns the most recent persistence failure (nil when
// healthy); the service's /healthz degrades on it.
func (s *Store) LastError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *Store) setErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
	s.opts.Logf("store: %v", err)
}

// intervalSyncLoop amortizes fsyncs under the interval policy.
func (s *Store) intervalSyncLoop() {
	defer close(s.intervalDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.wal.Sync(); err != nil {
				s.setErr(err)
			}
		case <-s.stopInterval:
			return
		}
	}
}

// Close detaches the journal, stops background syncing and closes the
// WAL (with a final sync). It does not snapshot — callers compact
// explicitly when they want a fast next start (the service does on
// shutdown).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.reg.SetJournal(nil)
	if s.stopInterval != nil {
		close(s.stopInterval)
		<-s.intervalDone
	}
	err := s.wal.Close()
	if s.unlock != nil {
		s.unlock()
	}
	return err
}
