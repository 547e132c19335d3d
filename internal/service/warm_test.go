package service

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"harmony/internal/schema"
)

// warmTestSchemas returns n schemata with distinct content, named in
// registration order.
func warmTestSchemas(n int) []*schema.Schema {
	out := make([]*schema.Schema, n)
	for i := range out {
		out[i] = testSchema(fmt.Sprintf("warm%d", i+1),
			"order_id", fmt.Sprintf("customer_name_%d", i+1), fmt.Sprintf("total_%d", i+1))
	}
	return out
}

// TestRestartWarmsNewestProfiles pins the boot-time profile warm-up: a
// restarted store-backed server compiles exactly the cache-capacity
// newest schemata, counts no misses for it, serves a match of two of
// them from the cache, and never writes profile blobs to the store.
func TestRestartWarmsNewestProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StoreDir: dir, Fsync: "commit", ProfileCache: 4}
	schemas := warmTestSchemas(6)

	srv1, ts1 := newTestServer(t, cfg)
	for _, s := range schemas {
		postSchema(t, ts1.URL, s)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, cfg)
	pc := srv2.Profiles()
	if n := pc.Len(); n != 4 {
		t.Fatalf("warm set holds %d profiles, want 4", n)
	}
	st0 := pc.Stats()
	if st0.Misses != 0 || st0.Hits != 0 {
		t.Fatalf("warm-up touched the counters: %+v", st0)
	}

	var mr matchResponse
	do(t, "POST", ts2.URL+"/v1/match", matchRequest{A: "warm5", B: "warm6"}, http.StatusOK, &mr)
	st1 := pc.Stats()
	if hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses; hits != 2 || misses != 0 {
		t.Fatalf("match of two warmed schemata: %d hits, %d misses, want 2 and 0", hits, misses)
	}

	// The warm set went in oldest-first, so the LRU back is warm3: one
	// more compile evicts it and keeps warm4, the next-oldest.
	pc.Profile(schemas[0])
	for i, want := range []bool{true, false, false, true, true, true} {
		if _, resident := pc.Get(schemas[i].Fingerprint()); resident != want {
			t.Errorf("%s resident=%v, want %v", schemas[i].Name, resident, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "profiles")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("store has a profiles/ entry (stat err %v)", err)
	}
}

// TestBulkStreamWarmsOnlyItsTail: after a stream, the warmer compiles
// only the last cache-capacity schemata admitted — earlier ones would be
// evicted by the stream's own tail before anything could hit them.
func TestBulkStreamWarmsOnlyItsTail(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{StoreDir: dir, Fsync: "commit", ProfileCache: 4})
	schemas := warmTestSchemas(10)
	if _, summary := bulkIngest(t, ts.URL, ndjsonBody(t, schemas), "batch=3"); summary.Added != 10 {
		t.Fatalf("summary %+v", summary)
	}
	ts.Close()
	// Close drains the warmer's backlog.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if w, d := srv.warmer.warmed.Load(), srv.warmer.dropped.Load(); w != 4 || d != 0 {
		t.Fatalf("warmer warmed %d, dropped %d; want 4 and 0", w, d)
	}
	pc := srv.Profiles()
	for i, s := range schemas {
		_, resident := pc.Get(s.Fingerprint())
		if want := i >= len(schemas)-4; resident != want {
			t.Errorf("%s resident=%v, want %v", s.Name, resident, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "profiles")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("bulk-ingested store has a profiles/ entry (stat err %v)", err)
	}
}
