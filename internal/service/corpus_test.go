package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"harmony/internal/corpus"
	"harmony/internal/registry"
	"harmony/internal/schema"
)

// chainSchemas builds the query/hub/candidate triple used by the
// mapping-reuse tests: three shops describing the same person concept.
func chainSchemas() (q, hub, cand *schema.Schema) {
	q = schema.New("PersonnelSys", schema.FormatRelational)
	t := q.AddRoot("Person", schema.KindTable)
	q.AddElement(t, "person_id", schema.KindColumn, schema.TypeIdentifier)
	q.AddElement(t, "full_name", schema.KindColumn, schema.TypeString)
	q.AddElement(t, "birth_date", schema.KindColumn, schema.TypeDate)

	hub = schema.New("HubMDR", schema.FormatXML)
	h := hub.AddRoot("IndividualType", schema.KindComplexType)
	hub.AddElement(h, "individualId", schema.KindXMLElement, schema.TypeIdentifier)
	hub.AddElement(h, "individualName", schema.KindXMLElement, schema.TypeString)
	hub.AddElement(h, "dateOfBirth", schema.KindXMLElement, schema.TypeDate)

	cand = schema.New("CivicSys", schema.FormatRelational)
	c := cand.AddRoot("Citizen", schema.KindTable)
	cand.AddElement(c, "citizen_id", schema.KindColumn, schema.TypeIdentifier)
	cand.AddElement(c, "citizen_name", schema.KindColumn, schema.TypeString)
	cand.AddElement(c, "date_of_birth", schema.KindColumn, schema.TypeDate)
	return q, hub, cand
}

// addChainArtifacts stores the human-validated query↔hub and hub↔cand
// mappings that make composition possible.
func addChainArtifacts(t *testing.T, reg *registry.Registry) {
	t.Helper()
	for _, ma := range []registry.MatchArtifact{
		{
			SchemaA: "PersonnelSys", SchemaB: "HubMDR",
			Context:    registry.ContextIntegration,
			Provenance: registry.Provenance{CreatedBy: "alice", Tool: "manual"},
			Pairs: []registry.AssertedMatch{
				{PathA: "Person/person_id", PathB: "IndividualType/individualId", Score: 0.9, Status: registry.StatusAccepted},
				{PathA: "Person/full_name", PathB: "IndividualType/individualName", Score: 0.8, Status: registry.StatusAccepted},
				{PathA: "Person/birth_date", PathB: "IndividualType/dateOfBirth", Score: 0.85, Status: registry.StatusAccepted},
			},
		},
		{
			SchemaA: "HubMDR", SchemaB: "CivicSys",
			Context:    registry.ContextIntegration,
			Provenance: registry.Provenance{CreatedBy: "bob", Tool: "manual"},
			Pairs: []registry.AssertedMatch{
				{PathA: "IndividualType/individualId", PathB: "Citizen/citizen_id", Score: 0.9, Status: registry.StatusAccepted},
				{PathA: "IndividualType/individualName", PathB: "Citizen/citizen_name", Score: 0.75, Status: registry.StatusAccepted},
				{PathA: "IndividualType/dateOfBirth", PathB: "Citizen/date_of_birth", Score: 0.8, Status: registry.StatusAccepted},
			},
		},
	} {
		if _, err := reg.AddMatch(ma); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorpusEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	for i := 0; i < 6; i++ {
		postSchema(t, ts.URL, testSchema(fmt.Sprintf("s%d", i), "customer_id", "customer_name", fmt.Sprintf("extra_%d", i)))
	}

	// Synchronous POST form.
	var res corpus.Result
	do(t, "POST", ts.URL+"/v1/corpus/match", corpusRequest{Query: "s0", K: 3}, http.StatusOK, &res)
	if res.Query != "s0" {
		t.Fatalf("query = %q", res.Query)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("got %d matches, want 3: %+v", len(res.Matches), res.Matches)
	}
	for _, m := range res.Matches {
		if m.Schema == "s0" {
			t.Error("query matched itself")
		}
		if len(m.Pairs) == 0 {
			t.Errorf("match %q has no pairs", m.Schema)
		}
	}
	if res.Stats.CorpusSize != 5 {
		t.Errorf("CorpusSize = %d, want 5", res.Stats.CorpusSize)
	}

	// GET convenience form agrees.
	var got corpus.Result
	do(t, "GET", ts.URL+"/v1/corpus/topk?schema=s0&k=3", nil, http.StatusOK, &got)
	if len(got.Matches) != len(res.Matches) {
		t.Fatalf("GET returned %d matches, POST %d", len(got.Matches), len(res.Matches))
	}
	for i := range got.Matches {
		if got.Matches[i].Schema != res.Matches[i].Schema {
			t.Errorf("rank %d: GET %q vs POST %q", i, got.Matches[i].Schema, res.Matches[i].Schema)
		}
	}

	// Error paths.
	do(t, "POST", ts.URL+"/v1/corpus/match", corpusRequest{Query: "nope"}, http.StatusNotFound, nil)
	do(t, "POST", ts.URL+"/v1/corpus/match", corpusRequest{}, http.StatusBadRequest, nil)
	do(t, "POST", ts.URL+"/v1/corpus/match", corpusRequest{Query: "s0", Preset: "bogus"}, http.StatusBadRequest, nil)
	do(t, "GET", ts.URL+"/v1/corpus/topk?schema=s0&k=zero", nil, http.StatusBadRequest, nil)
	do(t, "GET", ts.URL+"/v1/corpus/topk", nil, http.StatusBadRequest, nil)

	// Corpus queries surface in /v1/stats.
	var st Stats
	do(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Corpus.Queries < 2 {
		t.Errorf("Corpus.Queries = %d, want >= 2", st.Corpus.Queries)
	}
	if st.Corpus.EngineRuns == 0 {
		t.Error("Corpus.EngineRuns = 0")
	}
	if st.Index.Schemas != 6 {
		t.Errorf("Index.Schemas = %d, want 6", st.Index.Schemas)
	}

	// Async corpus job.
	var job Job
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindCorpus, Query: "s1", K: 2}, http.StatusAccepted, &job)
	deadline := time.Now().Add(5 * time.Second)
	for {
		done, ok := srv.Queue().Get(job.ID)
		if !ok {
			t.Fatalf("job %s vanished", job.ID)
		}
		if done.State == JobDone {
			jr, ok := done.Result.(*corpus.Result)
			if !ok || len(jr.Matches) != 2 {
				t.Fatalf("job result %#v", done.Result)
			}
			break
		}
		if done.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job state %s (err %q)", done.State, done.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Bad corpus job requests fail at submission.
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindCorpus}, http.StatusBadRequest, nil)
	do(t, "POST", ts.URL+"/v1/jobs", JobRequest{Kind: KindCorpus, Query: "nope"}, http.StatusBadRequest, nil)
}

// TestCorpusRepeatServedFromCache checks the serving economics: a repeat
// corpus query must not re-run the engine for candidates whose outcomes
// are resident in the match cache.
func TestCorpusRepeatServedFromCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		postSchema(t, ts.URL, testSchema(fmt.Sprintf("s%d", i), "account_id", "account_name", fmt.Sprintf("extra_%d", i)))
	}
	var first corpus.Result
	do(t, "POST", ts.URL+"/v1/corpus/match", corpusRequest{Query: "s0", K: 2}, http.StatusOK, &first)
	if first.Stats.EngineRuns == 0 || first.Stats.CacheHits != 0 {
		t.Fatalf("first query stats %+v", first.Stats)
	}
	var second corpus.Result
	do(t, "POST", ts.URL+"/v1/corpus/match", corpusRequest{Query: "s0", K: 2}, http.StatusOK, &second)
	if second.Stats.EngineRuns != 0 {
		t.Errorf("repeat query ran the engine %d times (stats %+v)", second.Stats.EngineRuns, second.Stats)
	}
	if second.Stats.CacheHits == 0 {
		t.Error("repeat query recorded no cache hits")
	}
	// The pairwise endpoint shares the same cache entries: matching s0
	// against a corpus hit is itself a cache hit now.
	var mr matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "s0", B: first.Matches[0].Schema}, http.StatusOK, &mr)
	if !mr.Cached {
		t.Error("pairwise match after corpus query was not served from cache")
	}
	_ = srv
}

// TestComposedMappingRoundTrip is the reuse acceptance path: a corpus
// query composes a mapping through a hub, the composed artifact is
// persisted with hub provenance, and after a registry reload the
// warm-start keys it correctly so a repeat query is served from cache.
func TestComposedMappingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{Preset: "harmony", Threshold: 0.4, StoreDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, hub, cand := chainSchemas()
	for _, s := range []*schema.Schema{q, hub, cand} {
		if err := srv1.Registry().AddSchema(s, "steward"); err != nil {
			t.Fatal(err)
		}
	}
	addChainArtifacts(t, srv1.Registry())

	res, err := srv1.corpusTopK(t.Context(), corpusRequest{Query: "PersonnelSys", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	var civic *corpus.SchemaMatch
	for i := range res.Matches {
		if res.Matches[i].Schema == "CivicSys" {
			civic = &res.Matches[i]
		}
	}
	if civic == nil || !civic.Reused || civic.Hub != "HubMDR" {
		t.Fatalf("CivicSys not composed through hub: %+v", res.Matches)
	}

	// The composed artifact is in the registry with hub provenance.
	var composed *registry.MatchArtifact
	for _, ma := range srv1.Registry().MatchesBetween("PersonnelSys", "CivicSys") {
		if ma.Provenance.Tool == serviceTool {
			composed = ma
		}
	}
	if composed == nil {
		t.Fatal("composed artifact not persisted")
	}
	if !strings.Contains(composed.Provenance.Notes, "via=HubMDR") {
		t.Fatalf("composed artifact lacks hub provenance: %q", composed.Provenance.Notes)
	}
	key, hubName, ok := parseProvenanceNotes(composed.Provenance.Notes)
	if !ok || hubName != "HubMDR" {
		t.Fatalf("provenance notes unparseable: %q", composed.Provenance.Notes)
	}
	eq, _ := srv1.Registry().Schema("PersonnelSys")
	ec, _ := srv1.Registry().Schema("CivicSys")
	if key.FingerprintA != eq.Fingerprint || key.FingerprintB != ec.Fingerprint {
		t.Fatalf("artifact key %+v does not match fingerprints", key)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload: warm-start must seed the cache under the same key.
	srv2, err := New(Config{Preset: "harmony", Threshold: 0.4, StoreDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Cache().Stats().Warmed; got == 0 {
		t.Fatal("warm-start seeded nothing")
	}
	if _, ok := srv2.Cache().Get(key); !ok {
		t.Fatal("composed outcome not resident under its key after reload")
	}
	// The warm-started outcome keeps its composition provenance, so even
	// a pairwise /v1/match hit on this key is auditable as hub-composed.
	if out, ok := srv2.Cache().Get(key); !ok || out.ReusedVia != "HubMDR" {
		t.Fatalf("warm-started outcome lost hub provenance: %+v", out)
	}
	res2, err := srv2.corpusTopK(t.Context(), corpusRequest{Query: "PersonnelSys", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res2.Matches {
		if m.Schema == "CivicSys" {
			if !m.Cached {
				t.Errorf("CivicSys not served from warm-started cache: %+v", m)
			}
			if !m.Reused || m.Hub != "HubMDR" {
				t.Errorf("cache hit dropped composition provenance: %+v", m)
			}
		}
	}
	if res2.Stats.EngineRuns != 0 {
		t.Errorf("repeat query after reload ran the engine %d times", res2.Stats.EngineRuns)
	}
}
