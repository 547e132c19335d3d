package service

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"harmony/internal/obs"
)

// metricNameRe is the repo's naming convention for exported series.
var metricNameRe = regexp.MustCompile(`^harmony_[a-z0-9_]+$`)

// scrape is a hand-rolled Prometheus text-exposition parser (the golden
// test deliberately does not reuse internal/obs's validator): it returns
// the set of family names from # TYPE lines and every sample keyed by
// its full series string (name plus label block).
func scrape(t *testing.T, url string) (families map[string]string, samples map[string]float64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	families = map[string]string{}
	samples = map[string]float64{}
	for i, line := range strings.Split(string(body), "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE %q", i+1, line)
			}
			if _, dup := families[fields[2]]; dup {
				t.Fatalf("line %d: duplicate family %q", i+1, fields[2])
			}
			families[fields[2]] = fields[3]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		default:
			// Sample: series value. The series may hold a label block with
			// spaces inside quoted values, so split on the last space.
			sp := strings.LastIndex(line, " ")
			if sp < 0 {
				t.Fatalf("line %d: malformed sample %q", i+1, line)
			}
			series, raw := line[:sp], line[sp+1:]
			v, err := strconv.ParseFloat(strings.TrimPrefix(raw, "+"), 64)
			if err != nil {
				t.Fatalf("line %d: value %q: %v", i+1, raw, err)
			}
			samples[series] = v
		}
	}
	return families, samples
}

// familyOf strips the histogram suffixes off a series to find the family
// that must own it.
func familyOf(series string) string {
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suf)
	}
	return name
}

// TestMetricsExposition is the golden /metrics test: a store-backed
// server exercises the engine (sync match), the corpus pipeline, and the
// job queue, then the scrape must parse, follow the harmony_* naming
// convention, and cover every subsystem with at least 25 families.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Workers: 1})
	postSchema(t, ts.URL, testSchema("orders", "order_id", "customer_name", "total_amount"))
	postSchema(t, ts.URL, testSchema("invoices", "invoice_id", "customer_name", "total_amount"))
	postSchema(t, ts.URL, testSchema("shipments", "shipment_id", "customer_name", "order_date"))

	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "orders", B: "invoices"}, http.StatusOK, nil)
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "orders", B: "invoices"}, http.StatusOK, nil) // cache hit
	do(t, "GET", ts.URL+"/v1/corpus/topk?schema=orders&k=2", nil, http.StatusOK, nil)

	var job Job
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindMatch, A: "orders", B: "shipments"}, http.StatusAccepted, &job)
	waitCluster(t, "job completion", func() bool {
		var j Job
		do(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, http.StatusOK, &j)
		return j.State == JobDone
	})

	families, samples := scrape(t, ts.URL+"/metrics")

	var harmony []string
	for name := range families {
		if !strings.HasPrefix(name, "harmony_") {
			continue
		}
		if !metricNameRe.MatchString(name) {
			t.Errorf("family %q violates ^harmony_[a-z0-9_]+$", name)
		}
		harmony = append(harmony, name)
	}
	if len(harmony) < 25 {
		t.Fatalf("only %d harmony_* families, want >= 25: %v", len(harmony), harmony)
	}

	// Every sample belongs to a declared family.
	for series := range samples {
		if _, ok := families[familyOf(series)]; !ok {
			t.Errorf("series %q has no TYPE declaration", series)
		}
	}

	// One family per instrumented subsystem must carry real traffic.
	positive := []string{
		`harmony_engine_match_phase_seconds_count{phase="vote"}`,
		`harmony_engine_matches_total{mode="dense"}`,
		"harmony_cache_hits_total",
		"harmony_cache_computes_total",
		`harmony_jobs_run_seconds_count{kind="match"}`,
		"harmony_jobs_completed_total",
		"harmony_wal_append_seconds_count",
		"harmony_store_last_lsn",
		"harmony_store_commits_total",
		"harmony_corpus_queries_total",
		`harmony_corpus_score_seconds_count{shard="0"}`,
		`harmony_http_requests_total{route="/v1/match",code="200"}`,
		"harmony_uptime_seconds",
	}
	for _, series := range positive {
		if samples[series] <= 0 {
			t.Errorf("series %s = %v, want > 0", series, samples[series])
		}
	}

	// Histogram invariant: the +Inf bucket equals the count.
	inf := samples[`harmony_http_request_seconds_bucket{route="/v1/match",le="+Inf"}`]
	cnt := samples[`harmony_http_request_seconds_count{route="/v1/match"}`]
	if inf != cnt || cnt < 2 {
		t.Errorf("http histogram +Inf %v vs count %v, want equal and >= 2", inf, cnt)
	}
}

// TestStatsAndHealthzShape pins the JSON wire shape of /v1/stats and the
// build-info fields /healthz gained.
func TestStatsAndHealthzShape(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	postSchema(t, ts.URL, testSchema("orders", "order_id", "customer_name"))

	var raw map[string]json.RawMessage
	do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &raw)
	for _, key := range []string{"uptimeSeconds", "schemas", "artifacts", "cache", "queue", "corpus", "evolve", "index", "store"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/v1/stats missing key %q (got %v)", key, keys(raw))
		}
	}
	var uptime float64
	if err := json.Unmarshal(raw["uptimeSeconds"], &uptime); err != nil || uptime <= 0 {
		t.Errorf("uptimeSeconds = %s (%v), want positive number", raw["uptimeSeconds"], err)
	}

	var h struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		GoVersion     string  `json:"go_version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	do(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" || h.Version == "" || !strings.HasPrefix(h.GoVersion, "go") || h.UptimeSeconds <= 0 {
		t.Fatalf("healthz %+v, want ok + build info + positive uptime", h)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTracePropagation: a caller-supplied X-Harmony-Trace ID is echoed on
// the response, recorded in the trace ring, and visible via /v1/traces
// with the request's route as the root span.
func TestTracePropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postSchema(t, ts.URL, testSchema("orders", "order_id", "customer_name"))
	postSchema(t, ts.URL, testSchema("invoices", "invoice_id", "customer_name"))

	body := strings.NewReader(`{"a":"orders","b":"invoices"}`)
	req, err := http.NewRequest("POST", ts.URL+"/v1/match", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "feedc0ffee123456")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "feedc0ffee123456" {
		t.Fatalf("trace header echoed %q, want feedc0ffee123456", got)
	}

	var traces []obs.TraceView
	do(t, "GET", ts.URL+"/v1/traces?id=feedc0ffee123456", nil, http.StatusOK, &traces)
	if len(traces) != 1 {
		t.Fatalf("got %d traces for the ID, want 1", len(traces))
	}
	root := traces[0].Root
	if root.Name != "POST /v1/match" {
		t.Fatalf("root span %q, want POST /v1/match", root.Name)
	}
	if root.Attrs["code"] != "200" {
		t.Fatalf("root attrs %v, want code=200", root.Attrs)
	}
	found := false
	for _, c := range root.Children {
		if c.Name == "match.compute" {
			found = true
		}
	}
	if !found {
		t.Fatalf("root children %+v, want a match.compute span", root.Children)
	}
}

// TestClusterTraceSpansScatterGather is the cluster acceptance check: one
// trace ID supplied to the router's corpus top-k shows up on the router
// (root + corpus.topk + fanout legs) and on every replica that served a
// shard leg — end-to-end propagation over real HTTP.
func TestClusterTraceSpansScatterGather(t *testing.T) {
	specs := clusterSchemas(12)
	replicas, router := scatterCluster(t, specs, 3, 0)

	const traceID = "abcdef0123456789"
	req, err := http.NewRequest("GET", router.URL+"/v1/corpus/topk?schema=dataset03&k=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router corpus query status %d", resp.StatusCode)
	}

	// Router side: the trace holds the corpus.topk span with one fanout
	// leg per replica.
	var traces []obs.TraceView
	do(t, "GET", router.URL+"/v1/traces?id="+traceID, nil, http.StatusOK, &traces)
	if len(traces) != 1 {
		t.Fatalf("router recorded %d traces for the ID, want 1", len(traces))
	}
	legs := 0
	var walk func(sv obs.SpanView)
	walk = func(sv obs.SpanView) {
		if sv.Name == "fanout" {
			legs++
		}
		for _, c := range sv.Children {
			walk(c)
		}
	}
	walk(traces[0].Root)
	if legs != len(replicas) {
		t.Fatalf("router trace has %d fanout legs, want %d\n%+v", legs, len(replicas), traces[0])
	}

	// Replica side: every shard leg arrived carrying the same trace ID
	// and was recorded as that replica's own root span.
	for i := range replicas {
		rtraces := replicas[i].recorder.Traces()
		found := false
		for _, tr := range rtraces {
			if tr.ID == traceID {
				found = true
				if !strings.HasPrefix(tr.Root.Name, "GET /v1/corpus") {
					t.Fatalf("replica %d trace root %q", i, tr.Root.Name)
				}
			}
		}
		if !found {
			t.Fatalf("replica %d never saw trace %s (has %d traces)", i, traceID, len(rtraces))
		}
	}
}

// TestClusterLagMetricsAndRedirects: the leader's per-replica lag gauges
// agree with the follower's own applied state once it has caught up, and
// a refused mutation on the follower shows up both in /v1/stats
// (redirectsTotal) and as harmony_repl_redirects_total.
func TestClusterLagMetricsAndRedirects(t *testing.T) {
	leader, lts := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})
	postSchema(t, lts.URL, testSchema("orders", "order_id", "customer_name", "total_amount"))
	follower, fts := newTestServer(t, Config{
		StoreDir:  t.TempDir(),
		Fsync:     "commit",
		Role:      RoleFollower,
		PeerURL:   lts.URL,
		ReplicaID: "f1",
	})
	postSchema(t, lts.URL, testSchema("invoices", "invoice_id", "customer_name"))
	waitCluster(t, "follower catch-up", func() bool {
		st := statsOf(t, fts.URL)
		return st.Repl != nil && st.Repl.Follower != nil &&
			st.Repl.Follower.Connected && st.Repl.Follower.Lag == 0 &&
			st.Repl.Follower.AppliedLSN == leader.Store().LastLSN()
	})

	// Leader-side gauges: zero lag for the caught-up replica, fresh
	// contact. The leader measures lag from the follower's pull cursor,
	// which advances only on the poll after the follower applied the
	// last record, so wait for that poll before asserting.
	var lsamples map[string]float64
	waitCluster(t, "leader lag gauge at zero", func() bool {
		_, lsamples = scrape(t, lts.URL+"/metrics")
		v, ok := lsamples[`harmony_repl_lag_records{replica="f1"}`]
		return ok && v == 0
	})
	if v, ok := lsamples[`harmony_repl_lag_records{replica="f1"}`]; !ok || v != 0 {
		t.Fatalf("leader lag_records{f1} = %v (present %v), want 0", v, ok)
	}
	if v, ok := lsamples[`harmony_repl_lag_seconds{replica="f1"}`]; !ok || v < 0 || v > 60 {
		t.Fatalf("leader lag_seconds{f1} = %v (present %v), want recent contact", v, ok)
	}
	if lsamples["harmony_repl_records_shipped_total"] <= 0 {
		t.Fatal("leader shipped no WAL records according to /metrics")
	}

	// Follower-side gauges agree with its stats.
	_, fsamples := scrape(t, fts.URL+"/metrics")
	if got, want := fsamples["harmony_repl_follower_applied_lsn"], float64(leader.Store().LastLSN()); got != want {
		t.Fatalf("follower applied_lsn gauge %v, want %v", got, want)
	}
	if fsamples["harmony_repl_follower_lag_records"] != 0 {
		t.Fatalf("follower lag gauge %v, want 0", fsamples["harmony_repl_follower_lag_records"])
	}

	// A refused mutation increments the redirect counter everywhere it is
	// exposed.
	resp, err := http.Post(fts.URL+"/v1/schemas", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower mutation status %d, want 403", resp.StatusCode)
	}
	if st := statsOf(t, fts.URL); st.Repl == nil || st.Repl.RedirectsTotal != 1 {
		t.Fatalf("follower stats %+v, want redirectsTotal 1", st.Repl)
	}
	_, fsamples = scrape(t, fts.URL+"/metrics")
	if fsamples["harmony_repl_redirects_total"] != 1 {
		t.Fatalf("harmony_repl_redirects_total = %v, want 1", fsamples["harmony_repl_redirects_total"])
	}
	_ = follower
}
