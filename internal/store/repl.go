package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// This file is the store's replication surface: everything a WAL-shipping
// leader needs to serve its log (record reads, snapshot shipping, cursor
// pinning so compaction cannot outrun a connected follower) and
// everything a follower needs to mirror it (replicated appends at
// leader-assigned LSNs, wholesale reset onto a shipped snapshot). The
// HTTP protocol on top lives in internal/repl; nothing here knows about
// the wire.

// ErrCompacted reports that the requested records were already folded
// into a snapshot and their segments deleted — the reader must
// re-bootstrap from a snapshot instead of tailing the log.
var ErrCompacted = errors.New("store: requested records already compacted into a snapshot")

// Record is one shipped WAL record: its log sequence number, the
// CRC32-Castagnoli of the payload (recomputed by the receiver before
// applying), and the payload itself — a JSON-encoded []registry.Op batch,
// exactly the bytes the leader committed.
type Record struct {
	LSN     uint64          `json:"lsn"`
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

const (
	// defaultReadRecords / defaultReadBytes bound one ReadRecords call
	// when the caller does not.
	defaultReadRecords = 512
	defaultReadBytes   = 4 << 20
)

// ReadRecords returns up to maxRecords records with LSN > fromLSN, in log
// order, stopping early once maxBytes of payload have been collected
// (zero limits pick defaults). A fromLSN older than the oldest retained
// segment returns ErrCompacted.
//
// Only records the WAL has finished flushing are read: the batch ends at
// the written LSN, even when the segment files already hold later bytes
// (a group flush writes its records and then fsyncs them). Under
// FsyncPerCommit the written LSN advances only after the fsync, so a
// reader is never handed a record that is not durable. Under the interval
// and off policies a record may ship before it is synced, by policy.
func (s *Store) ReadRecords(fromLSN uint64, maxRecords, maxBytes int) ([]Record, error) {
	if maxRecords <= 0 {
		maxRecords = defaultReadRecords
	}
	if maxBytes <= 0 {
		maxBytes = defaultReadBytes
	}
	// Read the bound before the files: every record at or below it is
	// already in them.
	written := s.wal.WrittenLSN()
	if fromLSN >= written {
		return nil, nil
	}
	segs, err := listSegments(s.opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 || segs[0] > fromLSN+1 {
		// The segment that held record fromLSN+1 was compacted away.
		return nil, ErrCompacted
	}
	var out []Record
	var bytes int
	for i, first := range segs {
		// Skip whole segments the cursor already covers.
		if i < len(segs)-1 && segs[i+1] <= fromLSN+1 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.opts.Dir, segmentName(first)))
		if err != nil {
			return nil, err
		}
		lsn := first - 1
		off := 0
		for off < len(data) && lsn < written {
			payload, next, ok := readRecord(data, off)
			if !ok {
				// The truncation point replay will repair: stop shipping
				// here.
				return out, nil
			}
			lsn++
			if lsn > fromLSN {
				out = append(out, Record{
					LSN:     lsn,
					CRC:     crc32.Checksum(payload, crcTable),
					Payload: json.RawMessage(payload),
				})
				bytes += len(payload)
				if len(out) >= maxRecords || bytes >= maxBytes {
					return out, nil
				}
			}
			off = next
		}
	}
	return out, nil
}

// AppendNotify returns a channel closed by the next committed append.
// Grab it BEFORE checking ReadRecords, then wait on it when the read came
// back empty — the long-poll pattern without missed wakeups.
func (s *Store) AppendNotify() <-chan struct{} { return s.wal.AppendC() }

// LastLSN returns the log head — the newest appended record's LSN.
func (s *Store) LastLSN() uint64 { return s.wal.LastLSN() }

// DurableLSN returns the highest LSN known to be on stable storage.
func (s *Store) DurableLSN() uint64 { return s.wal.DurableLSN() }

// ShipSnapshot encodes the current registry state for follower bootstrap
// and returns the exact LSN it covers. It captures the state the way
// Snapshot does (see capture): the shipped state never pairs a record
// with the wrong LSN, and its LSN is never past the records the WAL has
// written — under FsyncPerCommit, never past the durable ones, so a
// leader that crashes cannot reuse an LSN a follower already holds. It
// writes nothing to disk: shipping is read-only on the leader.
func (s *Store) ShipSnapshot() (lsn uint64, data []byte, err error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	lsn, data, err = s.capture()
	if err != nil {
		return 0, nil, fmt.Errorf("store: ship snapshot: %w", err)
	}
	return lsn, data, nil
}

// AppendReplicated appends one leader-shipped record at its original LSN,
// under the store's fsync policy. The follower's log stays byte- and
// LSN-identical to the leader's, so promotion is just "start accepting
// writes". Callers bracket the append and the registry apply with
// LockBatch/UnlockBatch so a local snapshot cannot slice between them,
// and apply ops strictly after the append (a crash in between replays the
// record from the local WAL).
func (s *Store) AppendReplicated(lsn uint64, payload []byte, ops int) error {
	if next := s.wal.LastLSN() + 1; lsn != next {
		return fmt.Errorf("store: replicated record %d out of order (want %d)", lsn, next)
	}
	if _, err := s.wal.Append(payload); err != nil {
		s.setErr(err)
		return fmt.Errorf("store: replicated append: %w", err)
	}
	s.mu.Lock()
	s.commits++
	s.ops += uint64(ops)
	s.lastErr = nil
	s.mu.Unlock()
	return nil
}

// ResetToSnapshot replaces the store's (and its registry's) entire state
// with a shipped snapshot covering lsn: a follower's one bootstrap path,
// both for an empty follower and after the leader compacted past its
// cursor. The snapshot is decoded and prepared first; one that does not
// decode returns an error and leaves the log, the snapshot files and the
// registry as they were. Then the local log restarts empty at lsn (local
// segments and older local snapshots are discarded), the snapshot is
// written and the registry installs the new state.
func (s *Store) ResetToSnapshot(lsn uint64, data []byte) error {
	install, err := s.reg.PrepareReset(data)
	if err != nil {
		return fmt.Errorf("store: reset: %w", err)
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Delete segments before writing the snapshot: a crash in between
	// recovers the previous snapshot with no log (consistent, merely
	// stale — the follower re-bootstraps again), never a snapshot whose
	// LSN disagrees with surviving segment names.
	if err := s.wal.ResetTo(lsn); err != nil {
		s.setErr(err)
		return fmt.Errorf("store: reset: %w", err)
	}
	if err := writeSnapshot(s.opts.Dir, lsn, data); err != nil {
		s.setErr(err)
		return fmt.Errorf("store: reset: %w", err)
	}
	install()
	s.mu.Lock()
	s.snapshotLSN = lsn
	s.snapshots++
	s.lastErr = nil
	s.mu.Unlock()
	if err := pruneSnapshots(s.opts.Dir); err != nil {
		s.opts.Logf("store: pruning snapshots: %v", err)
	}
	s.opts.Logf("store: reset to shipped snapshot at lsn %d (%d bytes)", lsn, len(data))
	return nil
}

// Pin retains WAL segments holding records with LSN > lsn for a named
// reader (a follower's catch-up cursor): snapshot compaction will not
// delete them while the pin stands. Re-pinning the same id advances (or
// rewinds) its cursor.
func (s *Store) Pin(id string, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins == nil {
		s.pins = make(map[string]uint64)
	}
	s.pins[id] = lsn
}

// Unpin releases a reader's segment retention.
func (s *Store) Unpin(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pins, id)
}

// pinnedFloor returns the smallest pinned cursor, and whether any pin
// stands.
func (s *Store) pinnedFloor() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var floor uint64
	ok := false
	for _, lsn := range s.pins {
		if !ok || lsn < floor {
			floor, ok = lsn, true
		}
	}
	return floor, ok
}
