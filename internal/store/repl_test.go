package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"harmony/internal/registry"
	"harmony/internal/schema"
)

func replTestSchema(name string) *schema.Schema {
	s := schema.New(name, schema.FormatRelational)
	tbl := s.AddRoot("record", schema.KindTable)
	s.AddElement(tbl, "id", schema.KindColumn, schema.TypeString)
	s.AddElement(tbl, "name", schema.KindColumn, schema.TypeString)
	return s
}

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestReadRecordsShipsCommittedOps: every committed mutation is readable
// back as a record whose CRC matches its payload and whose ops replay.
func TestReadRecordsShipsCommittedOps(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	for i := 0; i < 5; i++ {
		if err := s.Registry().AddSchema(replTestSchema(fmt.Sprintf("s%d", i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.ReadRecords(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("shipped %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
		if crc32.Checksum(rec.Payload, crcTable) != rec.CRC {
			t.Fatalf("record %d CRC mismatch", i)
		}
		var ops []registry.Op
		if err := json.Unmarshal(rec.Payload, &ops); err != nil {
			t.Fatalf("record %d payload: %v", i, err)
		}
		if len(ops) != 1 || ops[0].Kind != registry.OpSchemaAdd {
			t.Fatalf("record %d ops %+v", i, ops)
		}
	}

	// A partial read resumes exactly where it stopped.
	head, err := s.ReadRecords(0, 2, 0)
	if err != nil || len(head) != 2 {
		t.Fatalf("partial read %d records, err %v", len(head), err)
	}
	tail, err := s.ReadRecords(head[1].LSN, 0, 0)
	if err != nil || len(tail) != 3 || tail[0].LSN != 3 {
		t.Fatalf("resumed read %d records from %v, err %v", len(tail), tail, err)
	}
}

// TestReadRecordsStopsAtWrittenLSN: a record the segment file holds past
// the WAL's written LSN — a group flush between its write and its fsync
// — is not shipped.
func TestReadRecordsStopsAtWrittenLSN(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{Fsync: FsyncPerCommit})
	if err := s.Registry().AddSchema(replTestSchema("a"), ""); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	payload, err := registry.MarshalOps([]registry.Op{{Kind: registry.OpSchemaDelete, Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(segs[0])), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame(payload)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.DurableLSN(); got != 1 {
		t.Fatalf("durable LSN %d, want 1", got)
	}
	recs, err := s.ReadRecords(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("shipped %d records, want only record 1", len(recs))
	}
	if recs, err := s.ReadRecords(1, 0, 0); err != nil || len(recs) != 0 {
		t.Fatalf("read past the written LSN returned %d records, err %v", len(recs), err)
	}
}

// TestShipSnapshotNeverPassesWrittenLSN: with a group flush held, a
// shipped snapshot covers no record the WAL has not written (under
// FsyncPerCommit: fsynced). A leader that crashed after shipping such a
// snapshot would reuse the LSN for a new record the follower never gets.
func TestShipSnapshotNeverPassesWrittenLSN(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{Fsync: FsyncPerCommit})
	if err := s.Registry().AddSchema(replTestSchema("a"), ""); err != nil {
		t.Fatal(err)
	}
	s.wal.fmu.Lock()
	held := true
	defer func() {
		if held {
			s.wal.fmu.Unlock()
		}
	}()
	added := make(chan error, 1)
	go func() { added <- s.Registry().AddSchema(replTestSchema("b"), "") }()
	for s.wal.LastLSN() < 2 {
		runtime.Gosched()
	}
	type shipped struct {
		lsn, written uint64
		err          error
	}
	ch := make(chan shipped, 1)
	go func() {
		lsn, _, err := s.ShipSnapshot()
		s.wal.mu.Lock()
		written := s.wal.writtenLSN
		s.wal.mu.Unlock()
		ch <- shipped{lsn, written, err}
	}()
	var r shipped
	select {
	case r = <-ch:
	case <-time.After(100 * time.Millisecond):
		// Still waiting for the held flush: release it.
		s.wal.fmu.Unlock()
		held = false
		r = <-ch
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.lsn > r.written {
		t.Fatalf("shipped a snapshot at lsn %d with the WAL written through %d", r.lsn, r.written)
	}
	if held {
		s.wal.fmu.Unlock()
		held = false
	}
	if err := <-added; err != nil {
		t.Fatal(err)
	}
}

// TestResetToSnapshotUndecodableLeavesStore: a shipped body that does not
// decode is rejected before the reset touches anything — the segments,
// the snapshot files, the log head and the registry stay as they were, so
// a later local snapshot still pairs the registry with its own LSN.
func TestResetToSnapshotUndecodableLeavesStore(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	for _, name := range []string{"a", "b"} {
		if err := s.Registry().AddSchema(replTestSchema(name), ""); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(t, s.Registry())
	for _, body := range []string{
		`not json`,
		`{"schemas":[{"schema":"not a schema"}],"matches":[],"nextId":0}`,
		`{"schemas":[{"schema":{"name":"x","format":"relational"}},{"schema":{"name":"x","format":"relational"}}]}`,
	} {
		if err := s.ResetToSnapshot(50, []byte(body)); err == nil {
			t.Fatalf("reset onto %q succeeded", body)
		}
		gotSegs, _ := listSegments(dir)
		gotSnaps, _ := listSnapshots(dir)
		if !slices.Equal(gotSegs, segs) || !slices.Equal(gotSnaps, snaps) {
			t.Fatalf("after reset onto %q: segments %v snapshots %v, want %v and %v", body, gotSegs, gotSnaps, segs, snaps)
		}
		if got := s.LastLSN(); got != 2 {
			t.Fatalf("after reset onto %q: log head %d, want 2", body, got)
		}
		if !bytes.Equal(encode(t, s.Registry()), want) {
			t.Fatalf("after reset onto %q: registry changed", body)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got, _ := listSnapshots(dir); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("snapshots after a local snapshot %v, want [2]", got)
	}
}

// TestReadRecordsCompactedGap: a cursor behind the compaction horizon
// gets ErrCompacted, not a silent empty batch.
func TestReadRecordsCompactedGap(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so compaction actually deletes files.
	s := openTestStore(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if err := s.Registry().AddSchema(replTestSchema(fmt.Sprintf("s%02d", i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRecords(0, 0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read from 0 after compaction: err %v, want ErrCompacted", err)
	}
	// The head of the log is still readable.
	if _, err := s.ReadRecords(s.LastLSN(), 0, 0); err != nil {
		t.Fatalf("read at head: %v", err)
	}
}

// TestPinRetainsSegments is the satellite fix: compaction must not delete
// segments a connected follower still needs, and must resume once the
// pin lifts.
func TestPinRetainsSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if err := s.Registry().AddSchema(replTestSchema(fmt.Sprintf("s%02d", i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	// A follower parked at LSN 2 pins everything after it.
	s.Pin("follower-1", 2)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	recs, err := s.ReadRecords(2, 0, 0)
	if err != nil {
		t.Fatalf("pinned records compacted away: %v", err)
	}
	if len(recs) != 8 || recs[0].LSN != 3 {
		t.Fatalf("pinned read returned %d records starting %v", len(recs), recs)
	}
	if st := s.Stats(); st.Pins != 1 || st.PinnedLSN != 2 {
		t.Fatalf("stats pins %d at %d, want 1 at 2", st.Pins, st.PinnedLSN)
	}

	// Unpin and re-snapshot (with a new record so the snapshot is not a
	// no-op): the backlog compacts.
	s.Unpin("follower-1")
	if err := s.Registry().AddSchema(replTestSchema("extra"), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRecords(2, 0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("after unpin: err %v, want ErrCompacted", err)
	}
}

// TestAppendReplicatedMirrorsLeader: records shipped from one store and
// replayed through AppendReplicated + Apply produce an identical registry
// AND an identical on-disk log that recovers on its own.
func TestAppendReplicatedMirrorsLeader(t *testing.T) {
	leader := openTestStore(t, t.TempDir(), Options{})
	for i := 0; i < 4; i++ {
		if err := leader.Registry().AddSchema(replTestSchema(fmt.Sprintf("s%d", i)), "ops"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.Registry().AddMatch(registry.MatchArtifact{
		SchemaA: "s0", SchemaB: "s1",
		Pairs: []registry.AssertedMatch{{PathA: "record/id", PathB: "record/id", Score: 0.9, Status: registry.StatusAccepted}},
	}); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	follower := openTestStore(t, fdir, Options{})
	recs, err := leader.ReadRecords(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		var ops []registry.Op
		if err := json.Unmarshal(rec.Payload, &ops); err != nil {
			t.Fatal(err)
		}
		follower.LockBatch()
		err := follower.AppendReplicated(rec.LSN, rec.Payload, len(ops))
		if err == nil {
			err = follower.Registry().Apply(ops)
		}
		follower.UnlockBatch()
		if err != nil {
			t.Fatal(err)
		}
	}
	if follower.LastLSN() != leader.LastLSN() {
		t.Fatalf("follower LSN %d, leader %d", follower.LastLSN(), leader.LastLSN())
	}
	if follower.Registry().Len() != 4 || follower.Registry().MatchCount() != 1 {
		t.Fatalf("follower state %d schemata / %d artifacts", follower.Registry().Len(), follower.Registry().MatchCount())
	}
	// Out-of-order appends are refused.
	if err := follower.AppendReplicated(follower.LastLSN()+2, []byte("[]"), 0); err == nil {
		t.Fatal("out-of-order replicated append accepted")
	}

	// The follower's own log is self-sufficient: close and recover.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Registry().Len() != 4 || re.Registry().MatchCount() != 1 {
		t.Fatalf("recovered follower %d schemata / %d artifacts", re.Registry().Len(), re.Registry().MatchCount())
	}
	if re.LastLSN() != leader.LastLSN() {
		t.Fatalf("recovered follower LSN %d, leader %d", re.LastLSN(), leader.LastLSN())
	}
}

// TestResetToSnapshotRebases: a follower whose cursor was compacted away
// rebases onto a shipped snapshot, and its store recovers from the new
// baseline after a restart.
func TestResetToSnapshotRebases(t *testing.T) {
	leader := openTestStore(t, t.TempDir(), Options{})
	for i := 0; i < 6; i++ {
		if err := leader.Registry().AddSchema(replTestSchema(fmt.Sprintf("s%d", i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	lsn, data, err := leader.ShipSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != leader.LastLSN() {
		t.Fatalf("shipped snapshot at lsn %d, head %d", lsn, leader.LastLSN())
	}

	fdir := t.TempDir()
	follower := openTestStore(t, fdir, Options{})
	// Stale local state the reset must discard.
	if err := follower.Registry().AddSchema(replTestSchema("stale"), ""); err != nil {
		t.Fatal(err)
	}
	if err := follower.ResetToSnapshot(lsn, data); err != nil {
		t.Fatal(err)
	}
	if follower.Registry().Len() != 6 {
		t.Fatalf("reset registry has %d schemata, want 6", follower.Registry().Len())
	}
	if _, ok := follower.Registry().Schema("stale"); ok {
		t.Fatal("stale pre-reset schema survived")
	}
	if follower.LastLSN() != lsn {
		t.Fatalf("reset follower LSN %d, want %d", follower.LastLSN(), lsn)
	}

	// Appends continue from the rebased LSN, and a restart recovers both
	// the snapshot and the appended delta.
	recsBefore := leader.LastLSN()
	if err := leader.Registry().AddSchema(replTestSchema("after"), ""); err != nil {
		t.Fatal(err)
	}
	recs, err := leader.ReadRecords(recsBefore, 0, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("delta read %d records, err %v", len(recs), err)
	}
	var ops []registry.Op
	if err := json.Unmarshal(recs[0].Payload, &ops); err != nil {
		t.Fatal(err)
	}
	follower.LockBatch()
	err = follower.AppendReplicated(recs[0].LSN, recs[0].Payload, len(ops))
	if err == nil {
		err = follower.Registry().Apply(ops)
	}
	follower.UnlockBatch()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Registry().Len() != 7 {
		t.Fatalf("recovered rebased follower has %d schemata, want 7", re.Registry().Len())
	}
}

// TestDurableLSNTracksPolicy: per-commit keeps DurableLSN at the head;
// off leaves it behind until an explicit sync (Close).
func TestDurableLSNTracksPolicy(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{Fsync: FsyncPerCommit})
	if err := s.Registry().AddSchema(replTestSchema("a"), ""); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DurableLSN != st.LastLSN || st.DurableLSN != 1 {
		t.Fatalf("per-commit durable %d / last %d", st.DurableLSN, st.LastLSN)
	}

	off := openTestStore(t, t.TempDir(), Options{Fsync: FsyncOff})
	if err := off.Registry().AddSchema(replTestSchema("a"), ""); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats(); st.DurableLSN != 0 || st.LastLSN != 1 {
		t.Fatalf("fsync-off durable %d / last %d, want 0 / 1", st.DurableLSN, st.LastLSN)
	}
}

// TestAppendNotifyWakes: the broadcast fires on append — the primitive
// the replication source's long-poll relies on.
func TestAppendNotifyWakes(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	ch := s.AppendNotify()
	select {
	case <-ch:
		t.Fatal("notify channel closed before any append")
	default:
	}
	if err := s.Registry().AddSchema(replTestSchema("a"), ""); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("append did not broadcast")
	}
}
