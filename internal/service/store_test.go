package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"harmony/internal/registry"
)

// crashCopy clones a store directory while the server is still running —
// with fsync-per-commit everything committed is on disk, so the clone is
// exactly what a kill -9 would leave behind.
func crashCopy(t *testing.T, src string) string {
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

// TestServerStoreSurvivesKill9 is the service-level durability check: a
// server with fsync-per-commit accepts schemas, match artifacts and a
// version-bumping PUT; a crash copy taken with NO shutdown recovers every
// accepted artifact on a fresh server.
func TestServerStoreSurvivesKill9(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{StoreDir: dir, Fsync: "commit", Workers: 1})

	a := testSchema("orders", "order_id", "customer_name", "total_amount")
	b := testSchema("invoices", "invoice_id", "customer_name", "total_amount")
	postSchema(t, ts.URL, a)
	postSchema(t, ts.URL, b)

	// A human-validated artifact — the asset the paper says must survive.
	id, err := srv.Registry().AddMatch(registry.MatchArtifact{
		SchemaA: "orders", SchemaB: "invoices", Context: registry.ContextIntegration,
		Pairs: []registry.AssertedMatch{{
			PathA: "record/customer_name", PathB: "record/customer_name",
			Score: 0.93, Status: registry.StatusAccepted, ValidatedBy: "engineer",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A synchronous match also persists its outcome as an artifact.
	var mresp matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "orders", B: "invoices"}, http.StatusOK, &mresp)

	// Version bump through PUT: the upgrade batch (bump + migrations) is
	// journaled atomically.
	a2 := testSchema("orders", "order_id", "customer_name", "total_amount", "currency_code")
	var eresp evolveResponse
	do(t, "PUT", ts.URL+"/v1/schemas/orders?rematch=none", a2, http.StatusOK, &eresp)
	if !eresp.Changed || eresp.Version != 2 {
		t.Fatalf("PUT response %+v", eresp)
	}

	wantSchemas := srv.Registry().Len()
	wantArtifacts := srv.Registry().MatchCount()

	// kill -9: no Close, no snapshot — recover from the WAL clone alone.
	clone := crashCopy(t, dir)
	srv2, err := New(Config{StoreDir: clone, Fsync: "commit", Preset: "name-only", Threshold: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Registry().Len(); got != wantSchemas {
		t.Fatalf("recovered %d schemata, want %d", got, wantSchemas)
	}
	if got := srv2.Registry().MatchCount(); got != wantArtifacts {
		t.Fatalf("recovered %d artifacts, want %d", got, wantArtifacts)
	}
	if e, ok := srv2.Registry().Schema("orders"); !ok || e.Version != 2 {
		t.Fatalf("recovered orders version = %v, want v2", e)
	}
	ma, ok := srv2.Registry().Match(id)
	if !ok {
		t.Fatalf("accepted artifact %s lost in crash", id)
	}
	if len(ma.AcceptedPairs()) == 0 {
		t.Fatalf("accepted pairs lost from %s", id)
	}
	if st := srv2.Store().Stats(); st.Replayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", st)
	}
}

// TestKill9UnderConcurrentCorpusTraffic crashes the server while a mixed
// read workload (/v1/match + /v1/corpus/topk) is in full flight and
// accepted mappings are being committed concurrently. The crash clone is
// taken mid-traffic, so the WAL tail may hold torn or half-journaled
// artifact writes from the background load — recovery must truncate
// those away while keeping every accepted mapping acked before the copy.
func TestKill9UnderConcurrentCorpusTraffic(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{StoreDir: dir, Fsync: "commit", Workers: 2})

	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("feed%02d", i)
		postSchema(t, ts.URL, testSchema(names[i], "record_id", "customer_name", fmt.Sprintf("field_%02d", i)))
	}

	// Background load: hammer the read endpoints. Both persist fresh
	// outcomes as proposed artifacts, so this is concurrent WAL traffic,
	// not just reads. Errors are ignored — the load exists to race the
	// crash copy, not to assert anything.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := names[(g+i)%len(names)], names[(g+i+1+i%3)%len(names)]
				body, _ := json.Marshal(matchRequest{A: a, B: b})
				if resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body)); err == nil {
					resp.Body.Close()
				}
				if resp, err := http.Get(ts.URL + "/v1/corpus/topk?schema=" + a + "&k=3"); err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}

	// Foreground: commit accepted mappings one by one. Fsync=commit means
	// each returned ID is an acknowledged, durable artifact.
	addAccepted := func(i int) string {
		t.Helper()
		id, err := srv.Registry().AddMatch(registry.MatchArtifact{
			SchemaA: names[i%len(names)], SchemaB: names[(i+1)%len(names)], Context: registry.ContextIntegration,
			Pairs: []registry.AssertedMatch{{
				PathA: "record/customer_name", PathB: "record/customer_name",
				Score: 0.9, Status: registry.StatusAccepted, ValidatedBy: fmt.Sprintf("engineer-%d", i),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var acked []string
	for i := 0; i < 6; i++ {
		acked = append(acked, addAccepted(i))
	}

	// kill -9 mid-traffic: clone the directory while the load goroutines
	// are still appending to the WAL.
	clone := crashCopy(t, dir)

	// Mappings acked after the copy may or may not be in the clone; they
	// are deliberately not asserted.
	for i := 6; i < 9; i++ {
		addAccepted(i)
	}
	close(stop)
	wg.Wait()

	srv2, err := New(Config{StoreDir: clone, Fsync: "commit", Preset: "name-only", Threshold: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for _, id := range acked {
		ma, ok := srv2.Registry().Match(id)
		if !ok {
			t.Fatalf("accepted mapping %s acked before the crash copy was lost", id)
		}
		if len(ma.AcceptedPairs()) == 0 {
			t.Fatalf("accepted pairs lost from %s", id)
		}
	}
	if got := srv2.Registry().Len(); got != len(names) {
		t.Fatalf("recovered %d schemata, want %d", got, len(names))
	}
}

// TestServerStoreMigratesLegacyDB: StoreDir + MigrateFrom imports the legacy
// JSON once, and the store owns the data afterwards.
func TestServerStoreMigratesLegacyDB(t *testing.T) {
	legacyPath := filepath.Join(t.TempDir(), "registry.json")
	legacy := registry.New()
	if err := legacy.AddSchema(testSchema("alpha", "id"), "ops"); err != nil {
		t.Fatal(err)
	}
	if err := legacy.AddSchema(testSchema("beta", "id"), "ops"); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Save(legacyPath); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{StoreDir: dir, MigrateFrom: legacyPath, Fsync: "commit"}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Registry().Len() != 2 {
		t.Fatalf("migration loaded %d schemata, want 2", srv.Registry().Len())
	}
	if err := srv.Registry().AddSchema(testSchema("gamma", "id"), ""); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same config: the legacy file must not clobber the
	// newer store contents, and the legacy file itself must be untouched.
	srv2, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.Registry().Len() != 3 {
		t.Fatalf("reopen lost store mutations: %d schemata, want 3", srv2.Registry().Len())
	}
	reloaded, err := registry.Load(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != 2 {
		t.Fatalf("legacy file was modified: %d schemata, want 2", reloaded.Len())
	}
}

// TestServerStoreStatsServed: /v1/stats carries the store block when the
// engine is on, and omits it for an in-memory server.
func TestServerStoreStatsServed(t *testing.T) {
	srv, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})
	if err := srv.Registry().AddSchema(testSchema("one", "id"), ""); err != nil {
		t.Fatal(err)
	}
	var st Stats
	do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Store == nil {
		t.Fatal("store-backed /v1/stats is missing the store block")
	}
	if st.Store.Commits == 0 || st.Store.LastLSN == 0 {
		t.Fatalf("store stats not counting: %+v", st.Store)
	}
	if st.Store.Fsync != "commit" {
		t.Fatalf("store stats fsync = %q, want commit", st.Store.Fsync)
	}

	_, memTS := newTestServer(t, Config{})
	var generic map[string]json.RawMessage
	do(t, "GET", memTS.URL+"/v1/stats", nil, http.StatusOK, &generic)
	if _, has := generic["store"]; has {
		t.Fatal("in-memory /v1/stats serves a store block")
	}
}

// TestHealthzDegradedOnSnapshotFailure: a failed snapshot is visible
// through /healthz (status degraded + error) instead of only a log line,
// and health recovers to ok once a snapshot succeeds again.
func TestHealthzDegradedOnSnapshotFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	srv, ts := newTestServer(t, Config{StoreDir: dir, Fsync: "commit"})
	if err := srv.Registry().AddSchema(testSchema("one", "id"), ""); err != nil {
		t.Fatal(err)
	}
	health := func() healthResponse {
		var h healthResponse
		do(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
		return h
	}

	// With the directory gone the snapshot file cannot be written.
	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Snapshot(); err == nil {
		t.Fatal("snapshot into a missing directory succeeded")
	}
	if h := health(); h.Status != "degraded" || h.Error == "" {
		t.Fatalf("healthz after a failed snapshot = %+v, want degraded with an error", h)
	}

	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Snapshot(); err != nil {
		t.Fatal(err)
	}
	if h := health(); h.Status != "ok" || h.Error != "" {
		t.Fatalf("healthz after a good snapshot = %+v, want ok", h)
	}
}

// TestSnapshotLoopCompacts: with a tiny SnapshotEvery and interval, the
// background loop snapshots on its own and the WAL replay debt drops.
func TestSnapshotLoopCompacts(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		StoreDir:         t.TempDir(),
		Fsync:            "commit",
		SnapshotEvery:    4,
		SnapshotInterval: 10 * time.Millisecond,
	})
	for i := 0; i < 10; i++ {
		if err := srv.Registry().AddSchema(testSchema(fmt.Sprintf("bulk%02d", i), "id"), ""); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Store().Stats()
		if st.Snapshots > 0 && st.RecordsSinceSnapshot < 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background snapshot never compacted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
