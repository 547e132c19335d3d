// Package repl implements WAL-shipping replication between harmonyd
// nodes: a leader serves its write-ahead log and bootstrap snapshots
// over HTTP, followers mirror the log record-by-record into their own
// stores and apply each record's registry ops through the same replay
// path crash recovery uses, and a scatter-gather router fans corpus
// top-k queries out across the replica set.
//
// The protocol ships the leader's committed WAL records verbatim: each
// record carries its log sequence number, the CRC32-Castagnoli of its
// payload (re-verified by the follower before applying), and the
// payload itself — the JSON-encoded []registry.Op batch exactly as the
// leader journaled it. A store-backed follower appends every record to
// its own WAL at the leader-assigned LSN, so the two logs stay byte-
// and LSN-identical and promoting a follower is just "start accepting
// writes"; no log surgery, no translation layer.
//
// A follower reaches the leader's state one way: it fetches a snapshot
// from PathSnapshot and resets onto it (store.ResetToSnapshot, or
// registry.ResetTo for a memory-only follower), then tails the log from
// the snapshot's LSN. A fresh follower, whose applied LSN is 0, does this
// inside StartFollower. A restarted follower resumes polling from its
// recovered LSN; when the leader has compacted past that cursor it
// answers 410 Gone, and the follower takes the same bootstrap path again.
// While a follower is connected, its cursor pins the leader's segments
// (store.Pin) so compaction cannot outrun it; pins expire after a
// contact TTL so a vanished replica cannot hold segments hostage
// forever.
//
// Durability: the leader ships only records its WAL has finished
// flushing (store.ReadRecords), and a shipped snapshot covers no record
// past them (store.ShipSnapshot). Under the default per-commit policy a
// flush ends with its fsync, so a follower never holds a record the
// leader has not made durable. Under the interval and off policies a
// flush ends with the write: a record can ship before its fsync, and a
// leader crash can then lose records a follower already applied —
// acceptable under an explicitly lossy policy.
package repl

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"

	"harmony/internal/store"
)

// Replication API paths, mounted by the service layer on the leader and
// dialed by followers. All are GET.
const (
	PathSnapshot = "/repl/v1/snapshot"
	PathWAL      = "/repl/v1/wal"
	PathStatus   = "/repl/v1/status"
)

// Header names on snapshot responses.
const (
	HeaderSnapshotLSN = "X-Harmony-Snapshot-Lsn"
	HeaderLeaderLSN   = "X-Harmony-Leader-Lsn"
)

// WALResponse is the wire form of a PathWAL batch.
type WALResponse struct {
	// Records are the shipped log records, in LSN order, possibly empty
	// (long-poll timeout with no traffic).
	Records []store.Record `json:"records"`
	// LeaderLSN is the leader's log head at response time — the
	// follower's lag reference.
	LeaderLSN uint64 `json:"leaderLSN"`
	// DurableLSN is the highest leader LSN known fsynced.
	DurableLSN uint64 `json:"durableLSN"`
}

// StatusResponse is the wire form of PathStatus — the leader's log
// position without any records.
type StatusResponse struct {
	LeaderLSN   uint64 `json:"leaderLSN"`
	DurableLSN  uint64 `json:"durableLSN"`
	SnapshotLSN uint64 `json:"snapshotLSN"`
	Replicas    int    `json:"replicas"`
}

// crcTable is the Castagnoli table the store writes WAL record CRCs
// with; followers re-verify shipped payloads against it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// verifyRecord checks one shipped record's integrity and its place in
// the log: it must extend the given applied LSN by exactly one, and its
// payload must match its CRC.
func verifyRecord(rec store.Record, applied uint64) error {
	if rec.LSN != applied+1 {
		return fmt.Errorf("repl: record %d out of sequence (applied %d)", rec.LSN, applied)
	}
	if got := crc32.Checksum(rec.Payload, crcTable); got != rec.CRC {
		return fmt.Errorf("repl: record %d CRC mismatch (got %08x, want %08x)", rec.LSN, got, rec.CRC)
	}
	return nil
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
