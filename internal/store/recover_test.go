package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harmony/internal/registry"
)

// buildCommitSequence drives a fixed sequence of journaled mutations —
// one WAL record each — capturing the serialized registry state after
// every commit. states[i] is the state with the first i commits applied
// (states[0] is the empty registry). The final commit is an upgrade, a
// version bump plus one artifact migration, so the record that recovery
// tests damage holds more than one op.
func buildCommitSequence(t testing.TB, dir string) (states [][]byte) {
	t.Helper()
	st := mustOpen(t, Options{Dir: dir, Fsync: FsyncPerCommit})
	reg := st.Registry()
	snap := func() {
		states = append(states, encode(t, reg))
	}
	snap() // empty prefix

	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		snap()
	}
	step(reg.AddSchema(testSchema("orders", "id", "total", "customer"), "alice", "sales"))
	step(reg.AddSchema(testSchema("invoices", "id", "amount", "payer"), "bob"))
	var matchID string
	step(func() error {
		var err error
		matchID, err = reg.AddMatch(registry.MatchArtifact{
			SchemaA: "orders", SchemaB: "invoices", Context: registry.ContextIntegration,
			Pairs: []registry.AssertedMatch{
				{PathA: "orders_root/id", PathB: "invoices_root/id", Score: 0.95, Status: registry.StatusAccepted, ValidatedBy: "alice"},
				{PathA: "orders_root/total", PathB: "invoices_root/amount", Score: 0.81, Status: registry.StatusAccepted, ValidatedBy: "alice"},
			},
		})
		return err
	}())
	step(func() error {
		_, err := reg.AddVersion(testSchema("orders", "id", "total", "customer", "currency"), "alice")
		return err
	}())
	step(func() error {
		ma, _ := reg.Match(matchID)
		upd := *ma
		upd.Pairs = append(append([]registry.AssertedMatch(nil), ma.Pairs...),
			registry.AssertedMatch{PathA: "orders_root/currency", PathB: "invoices_root/payer", Score: 0.42})
		return reg.UpdateMatch(matchID, upd)
	}())
	step(reg.AddSchema(testSchema("shipments", "id", "weight"), "carol"))
	step(func() error {
		_, err := reg.RemoveSchema("shipments")
		return err
	}())
	var invoiceMatchID string
	step(func() error {
		var err error
		invoiceMatchID, err = reg.AddMatch(registry.MatchArtifact{
			SchemaA: "invoices", SchemaB: "orders",
			Pairs: []registry.AssertedMatch{{PathA: "invoices_root/payer", PathB: "orders_root/customer", Score: 0.77, Status: registry.StatusAccepted, ValidatedBy: "bob"}},
		})
		return err
	}())
	step(func() error {
		cur, _ := reg.Schema("invoices")
		ma, _ := reg.Match(invoiceMatchID)
		upd := *ma
		upd.Pairs = append(append([]registry.AssertedMatch(nil), ma.Pairs...),
			registry.AssertedMatch{PathA: "invoices_root/due", PathB: "orders_root/total", Score: 0.35, Status: registry.StatusProposed})
		_, err := reg.AddVersionIf(testSchema("invoices", "id", "amount", "payer", "due"), cur.Fingerprint, "bob",
			[]registry.MatchArtifact{upd})
		return err
	}())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

// finalRecordExtent locates the last record of the last WAL segment and
// checks that it holds more than one op, so damaging it tests the
// atomicity of a multi-op record.
func finalRecordExtent(t testing.TB, dir string) (segPath string, start, end int) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listing segments: %v (n=%d)", err, len(segs))
	}
	segPath = filepath.Join(dir, segmentName(segs[len(segs)-1]))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	var payload []byte
	for off < len(data) {
		p, next, ok := readRecord(data, off)
		if !ok {
			t.Fatalf("pristine log has corrupt record at offset %d", off)
		}
		payload, start, end = p, off, next
		off = next
	}
	if end != len(data) {
		t.Fatalf("trailing garbage in pristine log")
	}
	var ops []registry.Op
	if err := json.Unmarshal(payload, &ops); err != nil || len(ops) < 2 {
		t.Fatalf("final record holds %d ops (%v), want a multi-op record", len(ops), err)
	}
	return segPath, start, end
}

// recoverState opens a (damaged) store directory and returns its
// recovered state. With checkAppend it also commits a new schema and
// checks that the commit survives a second open: the repaired log must
// accept and retain new records.
func recoverState(t testing.TB, dir string, checkAppend bool) []byte {
	t.Helper()
	st := mustOpen(t, Options{Dir: dir, Fsync: FsyncPerCommit})
	got := encode(t, st.Registry())
	if !checkAppend {
		st.Close()
		return got
	}
	if err := st.Registry().AddSchema(testSchema("postrecovery", "p"), ""); err != nil {
		t.Fatal(err)
	}
	after := encode(t, st.Registry())
	st.Close()
	st2 := mustOpen(t, Options{Dir: dir})
	if !bytes.Equal(after, encode(t, st2.Registry())) {
		t.Fatal("post-recovery append lost on second recovery")
	}
	st2.Close()
	return got
}

// TestCrashRecoveryEveryByteBoundary is the durability acceptance
// property test: with fsync-per-commit, damage to the final WAL record —
// truncation at every byte boundary and a bit flip at every offset —
// must recover to exactly the state of all earlier commits. Nothing
// fsynced before the damaged record is ever lost, and no damage variant
// yields a state that is not a commit prefix.
func TestCrashRecoveryEveryByteBoundary(t *testing.T) {
	pristine := t.TempDir()
	states := buildCommitSequence(t, pristine)
	wantFull := states[len(states)-1]
	wantPrefix := states[len(states)-2]

	segPath, start, end := finalRecordExtent(t, pristine)
	segName := filepath.Base(segPath)
	recLen := end - start
	if recLen < recordHeader+1 {
		t.Fatalf("final record suspiciously small (%d bytes)", recLen)
	}
	t.Logf("final record: %s bytes [%d,%d) (%d damage variants)", segName, start, end, 2*recLen)

	// Sanity: the undamaged copy recovers the full state.
	if got := recoverState(t, copyDir(t, pristine), true); !bytes.Equal(got, wantFull) {
		t.Fatalf("undamaged recovery diverged from full state")
	}

	// Truncation at every byte boundary of the final record: the file ends
	// mid-record (or exactly before it) and recovery must land on the
	// prefix state.
	for cut := 0; cut < recLen; cut++ {
		dir := copyDir(t, pristine)
		path := filepath.Join(dir, segName)
		if err := os.Truncate(path, int64(start+cut)); err != nil {
			t.Fatal(err)
		}
		got := recoverState(t, dir, cut%7 == 0)
		if !bytes.Equal(got, wantPrefix) {
			t.Fatalf("truncation at +%d bytes: recovered state is not the surviving prefix", cut)
		}
	}

	// A flipped byte anywhere in the final record (header or payload) must
	// fail its checksum / framing and recover the prefix state.
	for off := 0; off < recLen; off++ {
		dir := copyDir(t, pristine)
		path := filepath.Join(dir, segName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[start+off] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := recoverState(t, dir, off%7 == 0)
		if !bytes.Equal(got, wantPrefix) {
			t.Fatalf("bit flip at +%d bytes: recovered state is not the surviving prefix", off)
		}
	}
}

// FuzzWALRecovery truncates the final WAL record of buildCommitSequence —
// an upgrade holding two ops — after cut bytes, appends junk, and reopens
// the store. Open must never panic; the recovered state must be the
// prefix state, or the full state when cut keeps the whole record; and the
// repaired log must accept a new commit that survives a second open. When
// the damaged tail starts with a checksum-valid record of the junk's
// making, recovery may replay or reject it, so only the absence of a
// panic is checked. The seed corpus lives in testdata/fuzz.
func FuzzWALRecovery(f *testing.F) {
	pristine := f.TempDir()
	states := buildCommitSequence(f, pristine)
	wantFull := states[len(states)-1]
	wantPrefix := states[len(states)-2]
	segPath, start, end := finalRecordExtent(f, pristine)
	segName := filepath.Base(segPath)
	data, err := os.ReadFile(segPath)
	if err != nil {
		f.Fatal(err)
	}
	recLen := end - start

	// The record's length depends on the sequence, so the whole-record
	// seed is added here rather than in testdata.
	f.Add(uint16(recLen), []byte(nil))
	f.Fuzz(func(t *testing.T, cut uint16, junk []byte) {
		n := int(cut) % (recLen + 1)
		damaged := append(append([]byte(nil), data[:start+n]...), junk...)
		dir := copyDir(t, pristine)
		if err := os.WriteFile(filepath.Join(dir, segName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		// Recovery scans the damaged tail from the final record's start,
		// or from just past it when the record is whole.
		at, want := start, wantPrefix
		if n == recLen {
			at, want = end, wantFull
		}
		if framesRecord(damaged[at:]) {
			if st, err := Open(Options{Dir: dir}); err == nil {
				st.Close()
			}
			return
		}
		if got := recoverState(t, dir, true); !bytes.Equal(got, want) {
			t.Fatalf("cut %d of %d bytes + %d junk bytes: recovered state is neither the prefix nor the full state", n, recLen, len(junk))
		}
	})
}

// framesRecord reports whether b starts with a checksum-valid WAL record
// (length, CRC-32C, payload), checked independently of readRecord.
func framesRecord(b []byte) bool {
	if len(b) < 8 {
		return false
	}
	n := uint64(binary.LittleEndian.Uint32(b[:4]))
	if uint64(len(b)-8) < n {
		return false
	}
	return crc32.Checksum(b[8:8+n], crc32.MakeTable(crc32.Castagnoli)) == binary.LittleEndian.Uint32(b[4:8])
}

// TestRecoveryFallsBackToPreviousSnapshot corrupts the newest snapshot
// and checks recovery rebuilds the *full* state from the previous
// snapshot plus the retained WAL delta — compaction must never delete
// segments the fallback snapshot still needs. Exercised across two
// snapshot generations (fallback to an older snapshot) and then with
// every snapshot corrupted (fallback to the empty registry + full
// replay of the retained log).
func TestRecoveryFallsBackToPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so compaction actually deletes files — a lazily
	// rotated single segment would mask over-eager truncation.
	st := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	reg := st.Registry()
	add := func(i int) {
		t.Helper()
		if err := reg.AddSchema(testSchema(fmt.Sprintf("s%02d", i), "a", "b"), ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		add(i)
	}
	if err := st.Snapshot(); err != nil { // snapshot #1
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		add(i)
	}
	if err := st.Snapshot(); err != nil { // snapshot #2; compacts through #1
		t.Fatal(err)
	}
	for i := 10; i < 12; i++ {
		add(i)
	}
	want := encode(t, reg)
	st.Close()

	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >= 2 retained snapshots, got %d (%v)", len(snaps), err)
	}
	corrupt := func(lsn uint64) {
		t.Helper()
		path := filepath.Join(dir, snapshotName(lsn))
		if err := os.WriteFile(path, []byte("{definitely not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Newest snapshot corrupt: the previous snapshot plus the WAL records
	// between the two (which compaction must have retained) rebuild the
	// full state — including the post-snapshot tail.
	corrupt(snaps[0])
	st2 := mustOpen(t, Options{Dir: dir})
	if got := encode(t, st2.Registry()); !bytes.Equal(want, got) {
		t.Fatal("fallback to previous snapshot lost state")
	}
	st2.Close()

	// Every snapshot corrupt: recovery falls back to the empty registry.
	// If compaction already deleted early segments, the only correct move
	// is refusing to start (log gap); if the whole log happens to
	// survive, a full replay must rebuild the complete state. What must
	// never happen is a "successful" recovery with records missing.
	for _, lsn := range snaps {
		if _, statErr := os.Stat(filepath.Join(dir, snapshotName(lsn))); statErr == nil {
			corrupt(lsn)
		}
	}
	st3, err := Open(Options{Dir: dir})
	if err != nil {
		if !strings.Contains(err.Error(), "log gap") {
			t.Fatalf("expected a log-gap refusal, got: %v", err)
		}
	} else {
		defer st3.Close()
		if got := encode(t, st3.Registry()); !bytes.Equal(want, got) {
			t.Fatal("all-snapshots-corrupt recovery returned partial state")
		}
	}
}
