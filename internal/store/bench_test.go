package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

// corpus200 registers the standard 200-schema corpus (the E11 workload)
// into reg and returns two schemata to hang per-mutation artifacts off.
func corpus200(tb testing.TB, reg *registry.Registry) (a, b *schema.Schema) {
	tb.Helper()
	schemas, _, _ := synth.Collection(42, 8, 25)
	for _, s := range schemas {
		if err := reg.AddSchema(s, "bench"); err != nil {
			tb.Fatal(err)
		}
	}
	return schemas[0], schemas[1]
}

// benchArtifact builds the i-th unique mutation payload: a small accepted
// match between the two anchor schemata, the shape a validation workflow
// commits.
func benchArtifact(a, b *schema.Schema, i int) registry.MatchArtifact {
	ea, eb := a.Elements(), b.Elements()
	pa := ea[i%len(ea)].Path()
	pb := eb[i%len(eb)].Path()
	return registry.MatchArtifact{
		SchemaA: a.Name, SchemaB: b.Name, Context: registry.ContextIntegration,
		Provenance: registry.Provenance{CreatedBy: "bench", Tool: "bench"},
		Pairs: []registry.AssertedMatch{
			{PathA: pa, PathB: pb, Score: 0.9, Status: registry.StatusAccepted, ValidatedBy: "bench"},
		},
	}
}

// BenchmarkWALAppend prices one durable mutation (an accepted match
// artifact committed through the journal) on a 200-schema registry,
// under each fsync policy. This is the per-op cost that replaced a full
// registry snapshot per periodic save of the former JSON-file mode.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncPerCommit} {
		b.Run(string(policy), func(b *testing.B) {
			st, err := Open(Options{Dir: b.TempDir(), Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			reg := st.Registry()
			sa, sb := corpus200(b, reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reg.AddMatch(benchArtifact(sa, sb, i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotPerMutation prices the pre-store strategy at its
// honest per-mutation cost: every mutation re-marshals and rewrites the
// whole 200-schema registry (what "durability" meant when the only
// mechanism was Registry.Save on a timer — per-op durability would have
// required exactly this).
func BenchmarkSnapshotPerMutation(b *testing.B) {
	reg := registry.New()
	sa, sb := corpus200(b, reg)
	path := filepath.Join(b.TempDir(), "registry.json")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.AddMatch(benchArtifact(sa, sb, i)); err != nil {
			b.Fatal(err)
		}
		if err := reg.Save(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecover prices crash recovery: snapshot-load of the
// 200-schema corpus plus replay of a 128-record WAL tail.
func BenchmarkStoreRecover(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	reg := st.Registry()
	sa, sb := corpus200(b, reg)
	if err := st.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if _, err := reg.AddMatch(benchArtifact(sa, sb, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(Options{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			b.Fatal(err)
		}
		if st.Stats().Replayed != 128 {
			b.Fatalf("replayed %d records, want 128", st.Stats().Replayed)
		}
		st.Close()
	}
}

// TestWALCheaperThanSnapshotPerMutation is the storage engine's
// acceptance measurement, stated as a deterministic work count:
// on the 200-schema registry, the bytes the WAL writes per mutation must
// undercut a full snapshot per mutation by at least 10x. The WAL side is
// the growth of Stats.AppendedBytes per AddMatch; the snapshot side is the
// size of the file Registry.Save rewrites after every mutation. Wall
// times are logged, not gated.
func TestWALCheaperThanSnapshotPerMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("per-mutation snapshot baseline is heavyweight; run without -short")
	}
	const mutations = 30

	// WAL path: per-op journal commits under the amortizing interval
	// policy. The corpus registration is journaled too but happens before
	// the baseline reading, so only the per-mutation delta is counted; the
	// final sync ensures every counted byte is really down.
	st, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	stReg := st.Registry()
	saW, sbW := corpus200(t, stReg)
	if err := st.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	walBefore := st.Stats().AppendedBytes
	startWAL := time.Now()
	for i := 0; i < mutations; i++ {
		if _, err := stReg.AddMatch(benchArtifact(saW, sbW, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	walTotal := time.Since(startWAL)
	walBytes := st.Stats().AppendedBytes - walBefore
	st.Close()

	// Snapshot-per-mutation path: same mutations, Registry.Save each time;
	// every Save rewrites the whole file.
	regSnap := registry.New()
	sa, sb := corpus200(t, regSnap)
	path := filepath.Join(t.TempDir(), "registry.json")
	var snapBytes uint64
	startSnap := time.Now()
	for i := 0; i < mutations; i++ {
		if _, err := regSnap.AddMatch(benchArtifact(sa, sb, i)); err != nil {
			t.Fatal(err)
		}
		if err := regSnap.Save(path); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		snapBytes += uint64(fi.Size())
	}
	snapTotal := time.Since(startSnap)

	walPer := walBytes / mutations
	snapPer := snapBytes / mutations
	if walPer == 0 {
		t.Fatalf("WAL appended %d bytes for %d mutations", walBytes, mutations)
	}
	ratio := float64(snapBytes) / float64(walBytes)
	t.Logf("per-mutation bytes: WAL %d B vs snapshot %d B (%.0fx fewer over %d mutations)",
		walPer, snapPer, ratio, mutations)
	t.Logf("per-mutation time: WAL %v vs snapshot %v (%.1fx)",
		walTotal/mutations, snapTotal/mutations, float64(snapTotal)/float64(walTotal))
	if ratio < 10 {
		t.Fatalf("WAL writes only %.1fx fewer bytes than snapshot-per-mutation (wal=%d B snap=%d B)", ratio, walBytes, snapBytes)
	}
}

// TestBenchArtifactsAreUnique guards the benchmark payload generator: two
// different iterations must not collide into identical artifacts (which
// the registry would happily store, quietly benchmarking the wrong
// thing).
func TestBenchArtifactsAreUnique(t *testing.T) {
	reg := registry.New()
	sa, sb := corpus200(t, reg)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		ma := benchArtifact(sa, sb, i)
		key := fmt.Sprintf("%s~%s", ma.Pairs[0].PathA, ma.Pairs[0].PathB)
		if seen[key] {
			t.Fatalf("iteration %d repeats pair %s", i, key)
		}
		seen[key] = true
	}
}
