package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"harmony/internal/corpus"
	"harmony/internal/registry"
)

// waitCluster polls cond until it holds or the deadline passes —
// replication is asynchronous, so cluster tests converge instead of
// asserting instantaneous state.
func waitCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clusterSchemas builds n small schemata with overlapping column names so
// name-based matching ranks them against each other.
func clusterSchemas(n int) []schemaSpec {
	out := make([]schemaSpec, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dataset%02d", i)
		// One column unique per schema: the registry fingerprints by
		// content, and a fully duplicated column set would make two
		// schemata indistinguishable (the pipeline treats a candidate
		// with the query's own fingerprint as the query).
		cols := []string{"record_id", "customer_name", fmt.Sprintf("field_%02d", i)}
		if i%2 == 0 {
			cols = append(cols, "total_amount")
		}
		if i%3 == 0 {
			cols = append(cols, "order_date")
		}
		out = append(out, schemaSpec{name: name, cols: cols})
	}
	return out
}

type schemaSpec struct {
	name string
	cols []string
}

// statsOf fetches and decodes /v1/stats.
func statsOf(t *testing.T, baseURL string) Stats {
	t.Helper()
	var st Stats
	do(t, "GET", baseURL+"/v1/stats", nil, http.StatusOK, &st)
	return st
}

// TestClusterReplicationEndToEnd stands up a leader and a store-backed
// follower over real HTTP: schemata registered on the leader appear on
// the follower, the follower serves search and corpus reads from its
// replica, mutations bounce with a pointer at the leader, and both
// sides report the replication block in /v1/stats.
func TestClusterReplicationEndToEnd(t *testing.T) {
	leader, lts := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})
	postSchema(t, lts.URL, testSchema("orders", "order_id", "customer_name", "total_amount"))
	postSchema(t, lts.URL, testSchema("invoices", "invoice_id", "customer_name", "total_amount"))
	postSchema(t, lts.URL, testSchema("shipments", "shipment_id", "customer_name", "order_date"))

	follower, fts := newTestServer(t, Config{
		StoreDir:  t.TempDir(),
		Fsync:     "commit",
		Role:      RoleFollower,
		PeerURL:   lts.URL,
		ReplicaID: "f1",
	})
	waitCluster(t, "follower bootstrap", func() bool { return follower.Registry().Len() == 3 })

	// Live tailing, not just the bootstrap snapshot: a post-start write
	// on the leader reaches the follower over the WAL stream.
	postSchema(t, lts.URL, testSchema("payments", "payment_id", "customer_name", "total_amount"))
	waitCluster(t, "WAL tail", func() bool { return follower.Registry().Len() == 4 })
	waitCluster(t, "zero lag", func() bool {
		st := statsOf(t, fts.URL)
		return st.Repl != nil && st.Repl.Follower != nil &&
			st.Repl.Follower.Connected && st.Repl.Follower.Lag == 0 &&
			st.Repl.Follower.AppliedLSN == leader.Store().LastLSN()
	})

	// Mutations 403 on the follower and point at the leader.
	resp, err := http.Post(fts.URL+"/v1/schemas", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower POST /v1/schemas status %d, want 403", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != lts.URL+"/v1/schemas" {
		t.Fatalf("follower 403 Location %q, want %q", loc, lts.URL+"/v1/schemas")
	}

	// Reads serve locally from the replicated state.
	var hits []searchHit
	do(t, "GET", fts.URL+"/v1/search?q=customer+name", nil, http.StatusOK, &hits)
	if len(hits) == 0 {
		t.Fatal("follower search returned nothing")
	}
	var res corpus.Result
	do(t, "GET", fts.URL+"/v1/corpus/topk?schema=orders&k=3", nil, http.StatusOK, &res)
	if len(res.Matches) == 0 || res.Stats.CorpusSize != 3 {
		t.Fatalf("follower corpus top-k = %d matches over corpus %d", len(res.Matches), res.Stats.CorpusSize)
	}

	// The follower's role is visible; the leader's source reports one
	// pinned replica.
	fst := statsOf(t, fts.URL)
	if fst.Repl.Role != RoleFollower {
		t.Fatalf("follower role %q", fst.Repl.Role)
	}
	lst := statsOf(t, lts.URL)
	if lst.Repl == nil || lst.Repl.Source == nil || lst.Repl.Source.Replicas != 1 {
		t.Fatalf("leader source stats %+v", lst.Repl)
	}
	var h healthResponse
	do(t, "GET", fts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" {
		t.Fatalf("healthy follower reports %+v", h)
	}
}

// TestClusterFreshFollowerBootstrapsBeforeServing: a fresh store-backed
// follower of a leader whose WAL still holds its whole history is
// populated by one snapshot bootstrap before New returns, and warms its
// match and profile caches from the leader's state.
func TestClusterFreshFollowerBootstrapsBeforeServing(t *testing.T) {
	leader, lts := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})
	postSchema(t, lts.URL, testSchema("orders", "order_id", "customer_name", "total_amount"))
	postSchema(t, lts.URL, testSchema("invoices", "invoice_id", "customer_name", "total_amount"))
	var mr matchResponse
	do(t, "POST", lts.URL+"/v1/match", matchRequest{A: "orders", B: "invoices"}, http.StatusOK, &mr)
	if leader.Registry().MatchCount() == 0 {
		t.Fatal("the leader stored no match result")
	}
	if _, err := leader.Store().ReadRecords(0, 0, 0); err != nil {
		t.Fatalf("precondition: the leader's WAL should hold its whole history: %v", err)
	}

	follower, _ := newTestServer(t, Config{
		StoreDir:  t.TempDir(),
		Fsync:     "commit",
		Role:      RoleFollower,
		PeerURL:   lts.URL,
		ReplicaID: "fresh",
	})
	// No waiting: New returned, so the bootstrap already happened.
	fs := follower.replStats().Follower
	if fs == nil || fs.Bootstraps != 1 {
		t.Fatalf("follower stats %+v, want exactly one bootstrap", fs)
	}
	if got, want := follower.Store().LastLSN(), leader.Store().LastLSN(); got != want {
		t.Fatalf("follower at lsn %d, leader at %d", got, want)
	}
	if follower.Registry().Len() != 2 || follower.Registry().MatchCount() != leader.Registry().MatchCount() {
		t.Fatalf("follower holds %d schemata and %d artifacts", follower.Registry().Len(), follower.Registry().MatchCount())
	}
	if got := follower.Cache().Stats().Warmed; got == 0 {
		t.Fatal("the follower's match cache warmed nothing from the leader's artifacts")
	}
	if got := follower.profiles.Stats().Size; got != 2 {
		t.Fatalf("the follower's profile cache holds %d profiles, want 2", got)
	}
}

// TestClusterLeaderKill9PromoteNoLoss is the failover acceptance test:
// accepted mappings committed on the leader, a caught-up follower, the
// leader dies without any shutdown, and promotion yields a writable
// node holding every accepted mapping — zero loss. The promoted node
// keeps serving the replication API, so a fresh follower can chain off
// it immediately.
func TestClusterLeaderKill9PromoteNoLoss(t *testing.T) {
	leader, lts := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})
	specs := clusterSchemas(6)
	for _, sp := range specs {
		postSchema(t, lts.URL, testSchema(sp.name, sp.cols...))
	}

	// Human-validated mappings — the assets the paper says must survive.
	// Fsync=commit means each AddMatch return is an acknowledgement.
	var acked []string
	for i := 0; i+1 < len(specs); i++ {
		id, err := leader.Registry().AddMatch(registry.MatchArtifact{
			SchemaA: specs[i].name, SchemaB: specs[i+1].name, Context: registry.ContextIntegration,
			Pairs: []registry.AssertedMatch{{
				PathA: "record/customer_name", PathB: "record/customer_name",
				Score: 0.9, Status: registry.StatusAccepted, ValidatedBy: "engineer",
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id)
	}

	follower, fts := newTestServer(t, Config{
		StoreDir:  t.TempDir(),
		Fsync:     "commit",
		Role:      RoleFollower,
		PeerURL:   lts.URL,
		ReplicaID: "f1",
	})
	waitCluster(t, "follower catch-up", func() bool {
		return follower.Store().LastLSN() == leader.Store().LastLSN()
	})

	// kill -9 the leader: sever every connection (including the
	// follower's long poll) and stop the listener. No Close, no final
	// snapshot — the process is simply gone from the network.
	lts.CloseClientConnections()
	lts.Close()

	// Promote the follower. The dead leader must not block it — this IS
	// the failover case.
	var promoted map[string]any
	do(t, "POST", fts.URL+"/repl/v1/promote", nil, http.StatusOK, &promoted)
	if promoted["role"] != RoleLeader {
		t.Fatalf("promote response %v", promoted)
	}

	// Zero accepted-mapping loss: every mapping acked by the dead leader
	// is on the promoted node, pairs intact.
	for _, id := range acked {
		ma, ok := follower.Registry().Match(id)
		if !ok {
			t.Fatalf("accepted mapping %s lost in failover", id)
		}
		if len(ma.AcceptedPairs()) == 0 {
			t.Fatalf("accepted pairs lost from %s", id)
		}
	}

	// The node is writable now...
	postSchema(t, fts.URL, testSchema("post-failover", "record_id", "customer_name"))
	if st := statsOf(t, fts.URL); st.Repl == nil || st.Repl.Role != RoleLeader {
		t.Fatalf("promoted node stats %+v", st.Repl)
	}

	// ...and already serves the replication API: a new in-memory
	// follower chains off the promoted leader and mirrors its state.
	chained, _ := newTestServer(t, Config{
		Role:      RoleFollower,
		PeerURL:   fts.URL,
		ReplicaID: "f2",
	})
	waitCluster(t, "chained follower", func() bool {
		return chained.Registry().Len() == follower.Registry().Len()
	})
}

// matchFingerprint reduces a ranked corpus result to the fields that must
// be identical between a single-node and a scatter-gathered execution.
// Cache provenance flags (Cached, Reused) legitimately differ between
// runs; ranking, scores and correspondences may not.
func matchFingerprint(ms []corpus.SchemaMatch) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		s := fmt.Sprintf("%s:%.6f:%d", m.Schema, m.Score, len(m.Pairs))
		for _, p := range m.Pairs {
			s += fmt.Sprintf("|%s=%s:%.6f", p.PathA, p.PathB, p.Score)
		}
		out = append(out, s)
	}
	return out
}

// scatterCluster stands up n replica servers each holding the full
// schema set, plus a router node fanning corpus queries across them.
func scatterCluster(t *testing.T, specs []schemaSpec, n int, workers int) (replicas []*Server, router *httptest.Server) {
	t.Helper()
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, ts := newTestServer(t, Config{CorpusWorkers: workers})
		for _, sp := range specs {
			if err := srv.Registry().AddSchema(testSchema(sp.name, sp.cols...), ""); err != nil {
				t.Fatal(err)
			}
		}
		replicas = append(replicas, srv)
		urls = append(urls, ts.URL)
	}
	rsrv, rts := newTestServer(t, Config{Replicas: urls, CorpusWorkers: workers})
	for _, sp := range specs {
		if err := rsrv.Registry().AddSchema(testSchema(sp.name, sp.cols...), ""); err != nil {
			t.Fatal(err)
		}
	}
	return replicas, rts
}

// TestScatterGatherMatchesSingleNode: a corpus query fanned across three
// replicas returns exactly the ranking a single node computes, and the
// merged stats cover the whole corpus.
func TestScatterGatherMatchesSingleNode(t *testing.T) {
	specs := clusterSchemas(12)
	replicas, router := scatterCluster(t, specs, 3, 0)

	// Baseline: an identical standalone node (no router) scores locally.
	single, sts := newTestServer(t, Config{})
	for _, sp := range specs {
		if err := single.Registry().AddSchema(testSchema(sp.name, sp.cols...), ""); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range []string{"dataset00", "dataset05", "dataset11"} {
		url := "/v1/corpus/topk?schema=" + q + "&k=4&exhaustive=1&noreuse=1"
		var got, want corpus.Result
		do(t, "GET", router.URL+url, nil, http.StatusOK, &got)
		do(t, "GET", sts.URL+url, nil, http.StatusOK, &want)
		gf, wf := matchFingerprint(got.Matches), matchFingerprint(want.Matches)
		if fmt.Sprint(gf) != fmt.Sprint(wf) {
			t.Fatalf("query %s: scatter-gather ranking diverged\n got %v\nwant %v", q, gf, wf)
		}
		// The merged partition stats cover the full corpus: every one of
		// the 11 non-query schemata was somebody's candidate.
		if got.Stats.CorpusSize != len(specs)-1 || got.Stats.Candidates != len(specs)-1 {
			t.Fatalf("query %s: merged stats %+v, want corpus %d", q, got.Stats, len(specs)-1)
		}
	}

	// Each replica answered its shard of each query.
	for i, r := range replicas {
		if got := r.corpusStats.snapshot().Queries; got != 3 {
			t.Fatalf("replica %d served %d shard legs, want 3", i, got)
		}
	}
	if st := statsOf(t, router.URL); st.Repl == nil || st.Repl.Router == nil ||
		st.Repl.Router.Queries != 3 || st.Repl.Router.Errors != 0 {
		t.Fatalf("router stats %+v", st.Repl)
	}
}

// TestReplicaReadScaling is the read-scaling acceptance check, asserted
// as capacity rather than wall-clock (single-core CI makes elapsed-time
// speedups meaningless): with scoring workers pinned to 1 per node, a
// scatter-gathered query stream leaves every replica with at most half
// the engine work the standalone node performs for identical results —
// so three replicas sustain at least twice the single-node read
// throughput. Wall-clock is logged for machines with real parallelism.
func TestReplicaReadScaling(t *testing.T) {
	specs := clusterSchemas(24)
	replicas, router := scatterCluster(t, specs, 3, 1)
	single, sts := newTestServer(t, Config{CorpusWorkers: 1})
	for _, sp := range specs {
		if err := single.Registry().AddSchema(testSchema(sp.name, sp.cols...), ""); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{"dataset01", "dataset04", "dataset07", "dataset10", "dataset13", "dataset16", "dataset19", "dataset22"}
	run := func(base string) time.Duration {
		start := time.Now()
		for _, q := range queries {
			url := "/v1/corpus/topk?schema=" + q + "&k=5&exhaustive=1&noreuse=1"
			var res corpus.Result
			do(t, "GET", base+url, nil, http.StatusOK, &res)
			if res.Stats.Candidates != len(specs)-1 {
				t.Fatalf("query %s on %s scored %d candidates, want %d", q, base, res.Stats.Candidates, len(specs)-1)
			}
		}
		return time.Since(start)
	}
	routed := run(router.URL)
	standalone := run(sts.URL)

	baseline := single.corpusStats.snapshot().EngineRuns
	if baseline == 0 {
		t.Fatal("standalone node reports no engine runs")
	}
	var maxShare uint64
	for i, r := range replicas {
		share := r.corpusStats.snapshot().EngineRuns
		t.Logf("replica %d: %d engine runs (standalone %d)", i, share, baseline)
		if share > maxShare {
			maxShare = share
		}
	}
	if 2*maxShare > baseline {
		t.Fatalf("busiest replica ran %d of %d engine runs — less than 2x read capacity", maxShare, baseline)
	}
	t.Logf("wall-clock: scatter-gather %v vs standalone %v over %d queries", routed, standalone, len(queries))
}
