package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

// ndjsonBody serializes schemas to the bulk endpoint's wire format: one
// interchange-format JSON document per line.
func ndjsonBody(t testing.TB, schemas []*schema.Schema) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range schemas {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// bulkIngest POSTs an NDJSON body and decodes the ack stream, returning
// the per-batch acks and the final summary.
func bulkIngest(t testing.TB, baseURL string, body []byte, query string) ([]bulkAck, bulkSummary) {
	t.Helper()
	url := baseURL + "/v1/schemas/bulk"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk ingest status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	return readBulkStream(t, resp.Body)
}

// readBulkStream decodes a bulk-ingest response body: the per-batch acks
// and the final summary, the one line with a "done" key.
func readBulkStream(t testing.TB, body io.Reader) ([]bulkAck, bulkSummary) {
	t.Helper()
	var (
		acks    []bulkAck
		summary bulkSummary
		sawDone bool
	)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			t.Fatalf("stream line %s: %v", line, err)
		}
		if kind.Done != nil {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatalf("summary line %s: %v", line, err)
			}
			sawDone = true
			continue
		}
		var ack bulkAck
		if err := json.Unmarshal(line, &ack); err != nil {
			t.Fatalf("ack line %s: %v", line, err)
		}
		acks = append(acks, ack)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream ended without a summary line")
	}
	return acks, summary
}

// FuzzBulkIngest is a robustness target for NDJSON bulk ingest: an
// arbitrary body at ?batch=1..4 into an in-memory server. Whatever the
// lines hold, every ack accounts for each of its lines (added or
// rejected), the summary sums the acks, and the registry holds exactly
// the schemata the summary reports added. The seed corpus lives in
// testdata/fuzz.
func FuzzBulkIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, batch uint8, body []byte) {
		srv, err := New(Config{Preset: "name-only", Threshold: 0.5, IngestWorkers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		url := "/v1/schemas/bulk?batch=" + strconv.Itoa(int(batch)%4+1)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		acks, summary := readBulkStream(t, rec.Body)
		var sum bulkSummary
		for _, a := range acks {
			if a.Added+len(a.Errors) != a.Lines {
				t.Fatalf("ack %+v: added + errors != lines", a)
			}
			sum.Batches++
			sum.Lines += a.Lines
			sum.Added += a.Added
			sum.Failed += len(a.Errors)
		}
		if !summary.Done || summary.Batches != sum.Batches || summary.Lines != sum.Lines ||
			summary.Added != sum.Added || summary.Failed != sum.Failed {
			t.Fatalf("summary %+v does not sum the acks %+v", summary, sum)
		}
		if n := srv.Registry().Len(); n != summary.Added {
			t.Fatalf("registry holds %d schemata, summary added %d", n, summary.Added)
		}
	})
}

// TestBulkIngestStream drives the streaming endpoint end to end: acked
// batches, per-batch durable LSNs, stats accounting, and the ingested
// schemata answering queries afterwards.
func TestBulkIngestStream(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{StoreDir: dir, Fsync: "commit", IngestWorkers: 2})

	schemas, _, _ := synth.Collection(3, 4, 25) // 100 schemas
	body := ndjsonBody(t, schemas)
	acks, summary := bulkIngest(t, ts.URL, body, "batch=20&steward=loader&tags=bulk,e19")

	if len(acks) != 5 {
		t.Fatalf("got %d acks, want 5 (100 lines / batch=20)", len(acks))
	}
	added := 0
	var lastLSN uint64
	for i, a := range acks {
		if a.Batch != i+1 || a.Lines != 20 {
			t.Fatalf("ack %d malformed: %+v", i, a)
		}
		if len(a.Errors) != 0 {
			t.Fatalf("ack %d has errors: %+v", i, a.Errors)
		}
		if a.DurableLSN <= lastLSN {
			t.Fatalf("ack %d durable LSN %d did not advance past %d", i, a.DurableLSN, lastLSN)
		}
		lastLSN = a.DurableLSN
		added += a.Added
	}
	if !summary.Done || summary.Added != 100 || added != 100 || summary.Failed != 0 {
		t.Fatalf("summary %+v (acked added %d)", summary, added)
	}
	if srv.Registry().Len() != 100 {
		t.Fatalf("registry has %d schemata, want 100", srv.Registry().Len())
	}
	e, ok := srv.Registry().Schema(schemas[42].Name)
	if !ok || e.Steward != "loader" || len(e.Tags) != 2 {
		t.Fatalf("ingested entry %+v (ok=%v)", e, ok)
	}

	// The stats surface reflects the stream.
	var st Stats
	do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Ingest.Streams != 1 || st.Ingest.Added != 100 || st.Ingest.LastSchemasPerSec <= 0 {
		t.Fatalf("ingest stats %+v", st.Ingest)
	}

	// Ingested schemas are searchable (the deferred merge must not lose
	// postings) and matchable.
	hits := srv.Registry().SearchSchema(schemas[0], 3)
	if len(hits) == 0 || hits[0].Schema != schemas[0].Name {
		t.Fatalf("index search for %q after bulk ingest: %v", schemas[0].Name, hits)
	}
	var mresp matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: schemas[0].Name, B: schemas[1].Name}, http.StatusOK, &mresp)
}

// TestBulkIngestRejectsBadLines: malformed lines are rejected per line
// with their 1-based line numbers; the stream, and every other line,
// still lands.
func TestBulkIngestRejectsBadLines(t *testing.T) {
	srv, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})

	good := []*schema.Schema{testSchema("g1", "a"), testSchema("g2", "b"), testSchema("g3", "c")}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(good[0])
	buf.WriteString("{not json}\n")
	enc.Encode(good[1])
	buf.WriteString("\n") // blank lines are skipped, not errors
	enc.Encode(good[1])   // duplicate name: rejected at admission
	enc.Encode(good[2])

	acks, summary := bulkIngest(t, ts.URL, buf.Bytes(), "batch=3")
	if !summary.Done {
		t.Fatalf("summary %+v", summary)
	}
	if summary.Added != 3 || summary.Failed != 2 {
		t.Fatalf("added %d failed %d, want 3/2", summary.Added, summary.Failed)
	}
	var lines []int
	for _, a := range acks {
		for _, e := range a.Errors {
			lines = append(lines, e.Line)
		}
	}
	// Line 2 is the parse failure; line 5 is the duplicate of g2 (the
	// blank line 4 is counted in the numbering but skipped, not errored).
	if len(lines) != 2 || lines[0] != 2 || lines[1] != 5 {
		t.Fatalf("error lines %v, want [2 5]", lines)
	}
	if srv.Registry().Len() != 3 {
		t.Fatalf("registry has %d schemata, want 3", srv.Registry().Len())
	}
}

// TestBulkIngestAckedBatchesSurviveKill9 is the tentpole durability
// property at the service level: a crash clone taken the moment a batch's
// ack arrives must recover every schema that ack (and all earlier acks)
// covered — ack ⇒ durable, mid-stream, with later batches still in
// flight through the prepare pipeline.
func TestBulkIngestAckedBatchesSurviveKill9(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{StoreDir: dir, Fsync: "commit", IngestWorkers: 2})

	schemas, _, _ := synth.Collection(9, 8, 25) // 200 schemas
	const batch = 25
	body := ndjsonBody(t, schemas)

	resp, err := http.Post(ts.URL+"/v1/schemas/bulk?batch=25", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Crash-copy the store directory at the third ack, while the stream
	// is still running and later batches are mid-pipeline.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	const ackedBatches = 3
	var clone string
	acked := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || bytes.Contains(line, []byte(`"done"`)) {
			continue
		}
		var ack bulkAck
		if err := json.Unmarshal(line, &ack); err != nil {
			t.Fatalf("ack %s: %v", line, err)
		}
		if len(ack.Errors) != 0 {
			t.Fatalf("unexpected line errors: %+v", ack.Errors)
		}
		acked++
		if acked == ackedBatches {
			clone = crashCopy(t, dir)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if clone == "" {
		t.Fatalf("stream produced only %d acks, want >= %d", acked, ackedBatches)
	}

	// Recover the clone: batches are admitted in stream order, so acks
	// 1..3 cover exactly the first 75 lines. Every one of those schemas
	// must be present; later ones may or may not be (committed but
	// unacked is allowed, lost-after-ack is not).
	srv2, err := New(Config{StoreDir: clone, Fsync: "commit", Preset: "name-only", Threshold: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for i := 0; i < ackedBatches*batch; i++ {
		if _, ok := srv2.Registry().Schema(schemas[i].Name); !ok {
			t.Fatalf("schema %d (%q) acked in batch %d but lost in crash", i, schemas[i].Name, i/batch+1)
		}
	}
}

// TestBulkIngestConcurrentWithReads mixes a bulk-ingest stream with live
// /v1/match and corpus top-k traffic — the lock-contention regression
// test for batched admission (run under -race in CI).
func TestBulkIngestConcurrentWithReads(t *testing.T) {
	srv, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit", IngestWorkers: 2, Workers: 2})

	seeded, _, _ := synth.Collection(5, 4, 10) // 40 pre-loaded schemas
	for _, s := range seeded {
		// Collection names only encode domain/schema indices, so two
		// collections collide; keep the seed set disjoint from the stream.
		s.Name = "seed_" + s.Name
		if err := srv.Registry().AddSchema(s, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	incoming, _, _ := synth.Collection(11, 8, 25) // 200 streamed schemas
	body := ndjsonBody(t, incoming)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	reader := func(fn func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := fn(); err != nil {
				errc <- err
				return
			}
		}
	}
	wg.Add(2)
	go reader(func() error {
		req := matchRequest{A: seeded[0].Name, B: seeded[1].Name}
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/v1/match status %d", resp.StatusCode)
		}
		return nil
	})
	go reader(func() error {
		resp, err := http.Get(ts.URL + "/v1/corpus/topk?schema=" + seeded[2].Name + "&k=3")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("topk status %d", resp.StatusCode)
		}
		return nil
	})

	_, summary := bulkIngest(t, ts.URL, body, "batch=32")
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if !summary.Done || summary.Added != len(incoming) {
		t.Fatalf("summary %+v", summary)
	}
	if got := srv.Registry().Len(); got != len(seeded)+len(incoming) {
		t.Fatalf("registry has %d schemata, want %d", got, len(seeded)+len(incoming))
	}
}

// TestBulkIngestThroughput pins the WAL work that makes bulk ingest
// fast, as counts read from the store: on a 10k-schema fixture with
// fsync-per-commit, the streaming path commits one record per batch and
// fsyncs at most once per commit (plus once per WAL segment rotation),
// while looped single POSTs commit one record per schema. Both admission rates are logged only; wall-clock
// ratios flake on a loaded machine, and the ingest benchmark workload
// measures the throughput.
func TestBulkIngestThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-schema bulk stream; run without -short")
	}
	schemas, _, _ := synth.Collection(42, 16, 625) // the 10k fixture

	// Pre-serialize both workloads so client-side encoding is outside
	// both measurements.
	const sample = 400
	single := make([][]byte, sample)
	for i, s := range schemas[:sample] {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		single[i] = b
	}
	body := ndjsonBody(t, schemas)

	// Baseline: looped single POSTs, one schema per request.
	srvA, tsA := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})
	a0 := srvA.Store().Stats()
	t0 := time.Now()
	for i, b := range single {
		resp, err := http.Post(tsA.URL+"/v1/schemas", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("single POST %d: status %d", i, resp.StatusCode)
		}
	}
	singleRate := float64(sample) / time.Since(t0).Seconds()
	a1 := srvA.Store().Stats()

	// Bulk: the full 10k fixture through the streaming pipeline.
	srvB, tsB := newTestServer(t, Config{StoreDir: t.TempDir(), Fsync: "commit"})
	b0 := srvB.Store().Stats()
	t1 := time.Now()
	_, summary := bulkIngest(t, tsB.URL, body, "")
	bulkRate := float64(summary.Added) / time.Since(t1).Seconds()
	b1 := srvB.Store().Stats()
	if !summary.Done || summary.Added != len(schemas) || summary.Failed != 0 {
		t.Fatalf("bulk summary %+v", summary)
	}
	if got := srvB.Registry().Len(); got != len(schemas) {
		t.Fatalf("registry has %d schemata, want %d", got, len(schemas))
	}
	t.Logf("single POST: %.0f schemas/s (n=%d); bulk: %.0f schemas/s (n=%d, %d batches); ratio %.1fx at %d procs",
		singleRate, sample, bulkRate, summary.Added, summary.Batches, bulkRate/singleRate, runtime.GOMAXPROCS(0))

	if commits := a1.Commits - a0.Commits; commits != sample {
		t.Errorf("single POSTs committed %d WAL records for %d schemata, want one each", commits, sample)
	}
	commits, syncs := b1.Commits-b0.Commits, b1.Syncs-b0.Syncs
	if want := uint64((len(schemas) + defaultBulkBatch - 1) / defaultBulkBatch); commits != want || uint64(summary.Batches) != want {
		t.Errorf("bulk stream committed %d WAL records in %d batches, want one per batch (%d)", commits, summary.Batches, want)
	}
	// A segment rotation syncs the finished segment whatever the policy;
	// the stream's 40 records never trigger a snapshot, so no segment is
	// compacted away and the segment delta counts the rotations.
	rotations := uint64(b1.Segments - b0.Segments)
	if syncs > commits+rotations {
		t.Errorf("bulk stream fsynced %d times for %d commits and %d segment rotations", syncs, commits, rotations)
	}
}

// TestJobQueueShedsLoadWithRetryAfter: a full backlog answers 429 with a
// Retry-After estimate derived from the queue's drain rate. The worker
// and the single backlog slot are pinned by blocking jobs, so the HTTP
// submission deterministically overflows.
func TestJobQueueShedsLoadWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Backlog: 1})
	postSchema(t, ts.URL, testSchema("l", "a", "b"))
	postSchema(t, ts.URL, testSchema("r", "a", "b"))

	block := make(chan struct{})
	defer close(block)
	hold := func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := srv.queue.Submit("hold", hold); err != nil { // occupies the worker
		t.Fatal(err)
	}
	waitRunning(t, srv.queue, 1)
	if _, err := srv.queue.Submit("hold", hold); err != nil { // fills the backlog slot
		t.Fatal(err)
	}

	body, _ := json.Marshal(JobRequest{Kind: "match", A: "l", B: "r"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 || secs > 300 {
		t.Fatalf("Retry-After %q outside [1,300]", ra)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "backlog full") {
		t.Fatalf("429 body %v", out)
	}
}

// waitRunning spins until the queue reports n running jobs.
func waitRunning(t *testing.T, q *Queue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d running jobs: %+v", n, q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
