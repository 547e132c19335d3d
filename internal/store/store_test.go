package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"harmony/internal/registry"
	"harmony/internal/schema"
)

func testSchema(name string, cols ...string) *schema.Schema {
	s := schema.New(name, schema.FormatRelational)
	root := s.AddElement(nil, name+"_root", schema.KindTable, schema.TypeNone)
	for _, c := range cols {
		s.AddElement(root, c, schema.KindColumn, schema.TypeString)
	}
	return s
}

func mustOpen(t testing.TB, opts Options) *Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// encode returns the canonical serialized state for equality checks.
func encode(t testing.TB, reg *registry.Registry) []byte {
	t.Helper()
	data, err := reg.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// copyDir clones a store directory so damage experiments never touch the
// pristine original.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreRoundTrip drives every mutation kind through a store and
// recovers the state from disk alone — once from the raw WAL and once
// from snapshot + empty log.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	reg := st.Registry()

	if err := reg.AddSchema(testSchema("orders", "id", "total"), "alice", "sales"); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSchema(testSchema("invoices", "id", "amount"), "bob"); err != nil {
		t.Fatal(err)
	}
	id, err := reg.AddMatch(registry.MatchArtifact{
		SchemaA: "orders", SchemaB: "invoices",
		Pairs: []registry.AssertedMatch{{PathA: "orders_root/id", PathB: "invoices_root/id", Score: 0.92, Status: registry.StatusAccepted, ValidatedBy: "alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddVersion(testSchema("orders", "id", "total", "currency"), "alice"); err != nil {
		t.Fatal(err)
	}
	ma, _ := reg.Match(id)
	upd := *ma
	upd.Pairs = append(append([]registry.AssertedMatch(nil), ma.Pairs...),
		registry.AssertedMatch{PathA: "orders_root/total", PathB: "invoices_root/amount", Score: 0.71})
	if err := reg.UpdateMatch(id, upd); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSchema(testSchema("scratch", "x"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RemoveSchema("scratch"); err != nil {
		t.Fatal(err)
	}

	want := encode(t, reg)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the WAL alone (no snapshot was ever written).
	st2 := mustOpen(t, Options{Dir: dir})
	if got := encode(t, st2.Registry()); !bytes.Equal(want, got) {
		t.Fatalf("WAL-only recovery diverged:\nwant %s\ngot  %s", want, got)
	}
	if st2.Stats().Replayed == 0 {
		t.Fatal("expected replayed records on WAL-only recovery")
	}

	// Snapshot, then recover from snapshot + empty tail.
	if err := st2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := mustOpen(t, Options{Dir: dir})
	defer st3.Close()
	if got := encode(t, st3.Registry()); !bytes.Equal(want, got) {
		t.Fatalf("snapshot recovery diverged")
	}
	if st3.Stats().Replayed != 0 {
		t.Fatalf("snapshot recovery replayed %d records, want 0", st3.Stats().Replayed)
	}

	// The log continues across recoveries: a fresh mutation lands and a
	// subsequent recovery still agrees.
	if err := st3.Registry().AddSchema(testSchema("postcrash", "y"), ""); err != nil {
		t.Fatal(err)
	}
	want2 := encode(t, st3.Registry())
	st3.Close()
	st4 := mustOpen(t, Options{Dir: dir})
	defer st4.Close()
	if got := encode(t, st4.Registry()); !bytes.Equal(want2, got) {
		t.Fatalf("post-snapshot append lost on recovery")
	}
}

// TestStoreSegmentRotationAndCompaction forces tiny segments, checks the
// log rotates, then snapshots and checks covered segments are deleted
// while recovery still works.
func TestStoreSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	reg := st.Registry()
	for i := 0; i < 40; i++ {
		if err := reg.AddSchema(testSchema(fmt.Sprintf("s%02d", i), "a", "b", "c"), ""); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Segments < 3 {
		t.Fatalf("expected rotation into >= 3 segments, got %d", stats.Segments)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Segments >= stats.Segments {
		t.Fatalf("compaction kept %d segments (was %d)", after.Segments, stats.Segments)
	}
	if after.RecordsSinceSnapshot != 0 {
		t.Fatalf("RecordsSinceSnapshot = %d after snapshot", after.RecordsSinceSnapshot)
	}
	// More mutations post-compaction, then recover everything.
	for i := 40; i < 50; i++ {
		if err := reg.AddSchema(testSchema(fmt.Sprintf("s%02d", i), "a"), ""); err != nil {
			t.Fatal(err)
		}
	}
	want := encode(t, reg)
	st.Close()
	st2 := mustOpen(t, Options{Dir: dir})
	defer st2.Close()
	if got := encode(t, st2.Registry()); !bytes.Equal(want, got) {
		t.Fatalf("post-compaction recovery diverged")
	}
	if st2.Registry().Len() != 50 {
		t.Fatalf("recovered %d schemata, want 50", st2.Registry().Len())
	}
}

// TestStoreUpgradeIsOneAtomicRecord checks that an upgrade (a version
// bump plus its artifact migration, committed by AddVersionIf) lands as a
// single WAL record, and that damaging that record drops the whole
// upgrade on recovery — never half of it.
func TestStoreUpgradeIsOneAtomicRecord(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	reg := st.Registry()
	a := testSchema("a", "x", "y")
	if err := reg.AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSchema(testSchema("b", "x", "y"), ""); err != nil {
		t.Fatal(err)
	}
	id, err := reg.AddMatch(registry.MatchArtifact{
		SchemaA: "a", SchemaB: "b",
		Pairs: []registry.AssertedMatch{{PathA: "a_root/x", PathB: "b_root/x", Score: 0.8, Status: registry.StatusAccepted}},
	})
	if err != nil {
		t.Fatal(err)
	}
	preUpgrade := encode(t, reg)
	before := st.Stats()

	ma, _ := reg.Match(id)
	upd := *ma
	upd.Pairs = append(append([]registry.AssertedMatch(nil), ma.Pairs...),
		registry.AssertedMatch{PathA: "a_root/z", PathB: "b_root/y", Score: 0.6})
	if _, err := reg.AddVersionIf(testSchema("a", "x", "y", "z"), a.Fingerprint(), "", []registry.MatchArtifact{upd}); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Commits != before.Commits+1 {
		t.Fatalf("upgrade cost %d commits, want 1", after.Commits-before.Commits)
	}
	if after.OpsCommitted != before.OpsCommitted+2 {
		t.Fatalf("upgrade committed %d ops, want 2", after.OpsCommitted-before.OpsCommitted)
	}
	want := encode(t, reg)
	st.Close()

	// Intact: the whole upgrade survives.
	st2 := mustOpen(t, Options{Dir: copyDir(t, dir)})
	if got := encode(t, st2.Registry()); !bytes.Equal(want, got) {
		t.Fatalf("upgrade lost on recovery")
	}
	st2.Close()

	// Damaged final (upgrade) record: the whole upgrade is gone, the
	// state is exactly the pre-upgrade prefix — no half-applied upgrade.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	dmg := copyDir(t, dir)
	segPath := filepath.Join(dmg, segmentName(segs[len(segs)-1]))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	st3 := mustOpen(t, Options{Dir: dmg})
	defer st3.Close()
	if !st3.Stats().RecoveredTornTail {
		t.Fatal("expected torn-tail recovery")
	}
	if got := encode(t, st3.Registry()); !bytes.Equal(preUpgrade, got) {
		t.Fatalf("torn upgrade left partial state:\nwant %s\ngot  %s", preUpgrade, got)
	}
}

// TestStoreCommitAfterCloseReportsError: a failed append surfaces through
// LastError/Stats for health reporting instead of vanishing into a log
// line.
func TestStoreCommitAfterCloseReportsError(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	reg := st.Registry()
	if err := reg.AddSchema(testSchema("a", "x"), ""); err != nil {
		t.Fatal(err)
	}
	st.Close() // detaches the journal and closes the WAL
	if err := st.Commit([]registry.Op{{Kind: registry.OpSchemaDelete, Name: "a"}}); err == nil {
		t.Fatal("Commit on a closed store succeeded")
	}
	if st.LastError() == nil || st.Stats().LastError == "" {
		t.Fatal("failed commit did not record LastError")
	}
}

// TestStoreSingleWriterLock: a second Open on a live store refuses (two
// writers would interleave LSNs in one segment), and the lock releases
// on Close.
func TestStoreSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open on a locked store succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, Options{Dir: dir})
	st2.Close()
}

// TestStoreConcurrentAppendSnapshotReplay interleaves writers with
// snapshot compaction under -race, then proves the disk state equals the
// final in-memory state.
func TestStoreConcurrentAppendSnapshotReplay(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 2048})
	reg := st.Registry()

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := ""
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-s%02d", g, i)
				if err := reg.AddSchema(testSchema(name, "id", "val"), ""); err != nil {
					t.Error(err)
					return
				}
				if prev != "" {
					if _, err := reg.AddMatch(registry.MatchArtifact{
						SchemaA: prev, SchemaB: name,
						Pairs: []registry.AssertedMatch{{
							PathA: prev + "_root/id", PathB: name + "_root/id",
							Score: 0.9, Status: registry.StatusAccepted,
						}},
					}); err != nil {
						t.Error(err)
						return
					}
				}
				prev = name
			}
		}(g)
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			_ = st.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	<-snapDone

	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := encode(t, reg)
	st.Close()
	st2 := mustOpen(t, Options{Dir: dir})
	defer st2.Close()
	if got := encode(t, st2.Registry()); !bytes.Equal(want, got) {
		t.Fatal("concurrent append/snapshot state diverged after recovery")
	}
	if n := st2.Registry().Len(); n != writers*perWriter {
		t.Fatalf("recovered %d schemata, want %d", n, writers*perWriter)
	}
	if n := st2.Registry().MatchCount(); n != writers*(perWriter-1) {
		t.Fatalf("recovered %d artifacts, want %d", n, writers*(perWriter-1))
	}
}

// TestStoreOpenRemovesStaleProfiles: a profiles/ directory of compiled
// profile blobs left by an older version is derived, never-journaled
// data. Open deletes it, logs the removal and recovers the same registry.
func TestStoreOpenRemovesStaleProfiles(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, Options{Dir: dir})
	if err := st.Registry().AddSchema(testSchema("orders", "id", "total"), "alice"); err != nil {
		t.Fatal(err)
	}
	want := encode(t, st.Registry())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "profiles")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "x.json"), []byte(`{"v":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	st = mustOpen(t, Options{Dir: dir, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	defer st.Close()
	if got := encode(t, st.Registry()); !bytes.Equal(got, want) {
		t.Fatalf("registry after cleanup diverges:\n%s\nwant\n%s", got, want)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale profiles/ still present (stat err %v)", err)
	}
	if !slices.ContainsFunc(logged, func(l string) bool { return strings.Contains(l, "stale compiled-profile") }) {
		t.Fatalf("removal not logged: %q", logged)
	}
}
