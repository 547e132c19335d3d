package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"harmony/internal/schema"
)

// testSchema builds a small relational schema whose column names overlap
// across calls, so name-based matching finds pairs.
func testSchema(name string, cols ...string) *schema.Schema {
	s := schema.New(name, schema.FormatRelational)
	tbl := s.AddRoot("record", schema.KindTable)
	for _, c := range cols {
		s.AddElement(tbl, c, schema.KindColumn, schema.TypeString)
	}
	return s
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Preset == "" {
		cfg.Preset = "name-only"
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// do issues one JSON request and decodes the response into out (skipped
// when out is nil), asserting the status code.
func do(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("%s %s: decoding body: %v", method, url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %s: %v", method, url, raw, err)
		}
	}
}

func postSchema(t *testing.T, baseURL string, s *schema.Schema) schemaSummary {
	t.Helper()
	var sum schemaSummary
	do(t, "POST", baseURL+"/v1/schemas", s, http.StatusCreated, &sum)
	return sum
}

// TestServerEndToEnd is the acceptance flow: register two schemata, match
// twice (second call is a cache hit with identical correspondences,
// visible in /v1/stats), then run an async vocabulary build over three
// schemata to completion.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var health map[string]any
	do(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("health %v", health)
	}

	a := testSchema("orders", "order_id", "customer_name", "total_amount")
	b := testSchema("invoices", "invoice_id", "customer_name", "total_amount")
	sumA := postSchema(t, ts.URL, a)
	if sumA.Fingerprint == "" || sumA.Elements != 4 {
		t.Fatalf("summary %+v", sumA)
	}
	postSchema(t, ts.URL, b)

	var listed []schemaSummary
	do(t, "GET", ts.URL+"/v1/schemas", nil, http.StatusOK, &listed)
	if len(listed) != 2 {
		t.Fatalf("listed %d schemas", len(listed))
	}

	// First match: computed.
	var first matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "orders", B: "invoices"}, http.StatusOK, &first)
	if first.Cached {
		t.Fatal("first match claims to be cached")
	}
	if len(first.Pairs) == 0 {
		t.Fatal("no correspondences at all between overlapping schemas")
	}

	// Second match: a cache hit with identical correspondences.
	var second matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "orders", B: "invoices"}, http.StatusOK, &second)
	if !second.Cached {
		t.Fatal("second match missed the cache")
	}
	if !reflect.DeepEqual(first.Pairs, second.Pairs) {
		t.Fatalf("cache returned different correspondences:\n%v\n%v", first.Pairs, second.Pairs)
	}

	var st Stats
	do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Cache.Hits < 1 {
		t.Fatalf("stats hit counter %d, want >= 1", st.Cache.Hits)
	}
	if st.Schemas != 2 || st.Artifacts != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Async vocabulary build over three schemata.
	c := testSchema("receipts", "receipt_id", "customer_name", "paid_amount")
	postSchema(t, ts.URL, c)
	var job Job
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Kind:    KindVocabulary,
		Schemas: []string{"orders", "invoices", "receipts"},
	}, http.StatusAccepted, &job)
	if job.ID == "" {
		t.Fatalf("job %+v", job)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", job.ID, job.State)
		}
		time.Sleep(10 * time.Millisecond)
		do(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, http.StatusOK, &job)
	}
	if job.State != JobDone {
		t.Fatalf("job finished %s: %s", job.State, job.Error)
	}
	var vres VocabularyJobResult
	raw, _ := json.Marshal(job.Result)
	if err := json.Unmarshal(raw, &vres); err != nil {
		t.Fatal(err)
	}
	if vres.Terms == 0 || len(vres.Cells) == 0 {
		t.Fatalf("vocabulary result %+v", vres)
	}

	// Search finds the registered schemata.
	var hits []map[string]any
	do(t, "GET", ts.URL+"/v1/search?q=customer+name&k=5", nil, http.StatusOK, &hits)
	if len(hits) == 0 {
		t.Fatal("search found nothing")
	}
}

// TestServerMatchStampede drives the sync match path from many goroutines
// at once and checks the matrix was scored exactly once.
func TestServerMatchStampede(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	postSchema(t, ts.URL, testSchema("l", "alpha", "beta", "gamma"))
	postSchema(t, ts.URL, testSchema("r", "alpha", "beta", "delta"))

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := make(chan struct{})
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			<-start
			body, _ := json.Marshal(matchRequest{A: "l", B: "r"})
			resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Cache().Stats()
	if st.Computes != 1 || st.Misses != 1 {
		t.Fatalf("pair scored %d times (misses %d), want exactly once", st.Computes, st.Misses)
	}
	if st.Hits+st.Coalesced != clients-1 {
		t.Fatalf("hits %d + coalesced %d != %d", st.Hits, st.Coalesced, clients-1)
	}
}

// TestServerWarmStart restarts the service on the same store and checks
// that a match computed by the first process is served from cache by the
// second, without rescoring.
func TestServerWarmStart(t *testing.T) {
	dir := t.TempDir()

	srv1, err := New(Config{Preset: "name-only", Threshold: 0.5, StoreDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Registry().AddSchema(testSchema("orders", "order_id", "customer_name"), "svc"); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Registry().AddSchema(testSchema("invoices", "invoice_id", "customer_name"), "svc"); err != nil {
		t.Fatal(err)
	}
	ea, _ := srv1.Registry().Schema("orders")
	eb, _ := srv1.Registry().Schema("invoices")
	out1, cached, err := srv1.matchCached(context.Background(), ea, eb, "name-only", 0.5)
	if err != nil || cached {
		t.Fatalf("first compute: cached=%v err=%v", cached, err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Preset: "name-only", Threshold: 0.5, StoreDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Cache().Stats().Warmed; got != 1 {
		t.Fatalf("warm-started %d entries, want 1", got)
	}
	ea, _ = srv2.Registry().Schema("orders")
	eb, _ = srv2.Registry().Schema("invoices")
	out2, cached, err := srv2.matchCached(context.Background(), ea, eb, "name-only", 0.5)
	if err != nil || !cached {
		t.Fatalf("after restart: cached=%v err=%v", cached, err)
	}
	if len(out2.Pairs) != len(out1.Pairs) {
		t.Fatalf("warm-started outcome differs: %v vs %v", out2.Pairs, out1.Pairs)
	}
	for i := range out1.Pairs {
		if out1.Pairs[i].PathA != out2.Pairs[i].PathA || out1.Pairs[i].PathB != out2.Pairs[i].PathB {
			t.Fatalf("pair %d differs: %+v vs %+v", i, out1.Pairs[i], out2.Pairs[i])
		}
	}
	// A different threshold is a different key: computed fresh.
	if _, cached, _ := srv2.matchCached(context.Background(), ea, eb, "name-only", 0.6); cached {
		t.Fatal("different threshold should not hit the warm-started key")
	}
}

// TestProvenanceNotesRoundTrip checks warm-start rebuilds the exact cache
// key, including thresholds that don't survive decimal rounding.
func TestProvenanceNotesRoundTrip(t *testing.T) {
	in := CacheKey{
		FingerprintA: "aa", FingerprintB: "bb",
		Preset: "harmony", Threshold: 0.42857142857142855,
	}
	out, hub, ok := parseProvenanceNotes(provenanceNotes(in))
	if !ok || out != in || hub != "" {
		t.Fatalf("round trip %+v -> %+v (hub=%q ok=%v)", in, out, hub, ok)
	}
	if _, _, ok := parseProvenanceNotes("engineer says these columns line up"); ok {
		t.Fatal("human notes parsed as a cache key")
	}
	// Composed corpus artifacts append the hub path; the key must still
	// round-trip and the hub must surface.
	out, hub, ok = parseProvenanceNotes(provenanceNotes(in) + " via=HubMDR")
	if !ok || out != in || hub != "HubMDR" {
		t.Fatalf("via round trip %+v -> %+v (hub=%q ok=%v)", in, out, hub, ok)
	}
}

// TestWarmStartSkipsStaleFingerprints replaces a schema's content after
// its artifact was stored; the artifact must not seed the cache.
func TestWarmStartSkipsStaleFingerprints(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{Preset: "name-only", Threshold: 0.5, StoreDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := srv1.Registry()
	if err := reg.AddSchema(testSchema("a", "x", "y"), ""); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSchema(testSchema("b", "x", "z"), ""); err != nil {
		t.Fatal(err)
	}
	ea, _ := reg.Schema("a")
	eb, _ := reg.Schema("b")
	if _, _, err := srv1.matchCached(context.Background(), ea, eb, "name-only", 0.5); err != nil {
		t.Fatal(err)
	}
	// The schema content changes after the match was stored.
	reg.ReplaceSchema(testSchema("a", "x", "y", "extra"), "")
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{Preset: "name-only", Threshold: 0.5, StoreDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Cache().Stats().Warmed; got != 0 {
		t.Fatalf("stale artifact warm-started %d entries, want 0", got)
	}
}

func TestServerJobLifecycleOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, name := range []string{"s1", "s2", "s3"} {
		postSchema(t, ts.URL, testSchema(name, "id", "name", "amount"))
	}

	// Cluster job with a fixed k.
	var job Job
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{
		Kind: KindCluster, Schemas: []string{"s1", "s2", "s3"}, K: 2,
	}, http.StatusAccepted, &job)
	deadline := time.Now().Add(10 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
		do(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, http.StatusOK, &job)
	}
	if job.State != JobDone {
		t.Fatalf("cluster job %s: %s", job.State, job.Error)
	}
	var cres ClusterJobResult
	raw, _ := json.Marshal(job.Result)
	if err := json.Unmarshal(raw, &cres); err != nil {
		t.Fatal(err)
	}
	if cres.K != 2 || len(cres.Labels) != 3 {
		t.Fatalf("cluster result %+v", cres)
	}

	// Async match job hits the same cache as the sync path.
	var mjob Job
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindMatch, A: "s1", B: "s2"}, http.StatusAccepted, &mjob)
	for !mjob.State.Terminal() {
		time.Sleep(10 * time.Millisecond)
		do(t, "GET", ts.URL+"/v1/jobs/"+mjob.ID, nil, http.StatusOK, &mjob)
	}
	if mjob.State != JobDone {
		t.Fatalf("match job %s: %s", mjob.State, mjob.Error)
	}
	var sync2 matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "s1", B: "s2"}, http.StatusOK, &sync2)
	if !sync2.Cached {
		t.Fatal("sync match after async match job should be a cache hit")
	}

	var all []Job
	do(t, "GET", ts.URL+"/v1/jobs", nil, http.StatusOK, &all)
	if len(all) != 2 {
		t.Fatalf("listed %d jobs", len(all))
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postSchema(t, ts.URL, testSchema("dup", "a"))

	var apiErr apiError
	// Duplicate registration.
	do(t, "POST", ts.URL+"/v1/schemas", testSchema("dup", "a"), http.StatusConflict, &apiErr)
	// Unregistered schema on sync match.
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "dup", B: "ghost"}, http.StatusNotFound, &apiErr)
	// Unknown preset.
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "dup", B: "dup", Preset: "nope"}, http.StatusBadRequest, &apiErr)
	// Bad threshold.
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "dup", B: "dup", Threshold: 3}, http.StatusBadRequest, &apiErr)
	// Bad job kind, missing schemas, duplicates, bad k.
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: "explode"}, http.StatusBadRequest, &apiErr)
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindVocabulary, Schemas: []string{"dup"}}, http.StatusBadRequest, &apiErr)
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindVocabulary, Schemas: []string{"dup", "dup"}}, http.StatusBadRequest, &apiErr)
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindCluster, Schemas: []string{"dup", "dup", "dup"}}, http.StatusBadRequest, &apiErr)
	// Unknown job.
	do(t, "GET", ts.URL+"/v1/jobs/job-999999", nil, http.StatusNotFound, &apiErr)
	do(t, "DELETE", ts.URL+"/v1/jobs/job-999999", nil, http.StatusNotFound, &apiErr)
	// Search without a query, bad mode, bad k.
	do(t, "GET", ts.URL+"/v1/search", nil, http.StatusBadRequest, &apiErr)
	do(t, "GET", ts.URL+"/v1/search?q=x&mode=teleport", nil, http.StatusBadRequest, &apiErr)
	do(t, "GET", ts.URL+"/v1/search?q=x&k=-1", nil, http.StatusBadRequest, &apiErr)
	// Schema retrieval and deletion.
	var got map[string]any
	do(t, "GET", ts.URL+"/v1/schemas/dup", nil, http.StatusOK, &got)
	if got["name"] != "dup" {
		t.Fatalf("schema body %v", got)
	}
	do(t, "GET", ts.URL+"/v1/schemas/ghost", nil, http.StatusNotFound, &apiErr)
	var del map[string]any
	do(t, "DELETE", ts.URL+"/v1/schemas/dup", nil, http.StatusOK, &del)
	do(t, "DELETE", ts.URL+"/v1/schemas/dup", nil, http.StatusNotFound, &apiErr)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Preset: "made-up"}, nil); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := New(Config{Threshold: 2}, nil); err == nil {
		t.Fatal("out-of-range threshold accepted")
	}
}
