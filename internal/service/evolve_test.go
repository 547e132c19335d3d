package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"harmony/internal/corpus"
	"harmony/internal/registry"
	"harmony/internal/schema"
)

// putSchema issues PUT /v1/schemas/{name} with the schema body.
func putSchema(t *testing.T, ts string, s *schema.Schema, query string, wantStatus int) evolveResponse {
	t.Helper()
	body, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/schemas/%s%s", ts, s.Name, query)
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("PUT %s = %d (%s), want %d", url, resp.StatusCode, e.Error, wantStatus)
	}
	var out evolveResponse
	if wantStatus < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestPutSchemaVersionBumpEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	a := testSchema("billing", "invoice_id", "amount_due", "customer_ref", "due_date")
	b := testSchema("crm", "invoice_id", "amount_due", "customer_ref", "account_mgr")
	if err := srv.Registry().AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().AddSchema(b, ""); err != nil {
		t.Fatal(err)
	}
	oldFp, _ := a.Fingerprint(), b

	// Prime the cache and persist an artifact via a sync match.
	var mr matchResponse
	do(t, http.MethodPost, ts.URL+"/v1/match", matchRequest{A: "billing", B: "crm"}, http.StatusOK, &mr)
	if len(mr.Pairs) == 0 {
		t.Fatal("no initial pairs; workload broken")
	}
	if srv.Cache().Len() == 0 {
		t.Fatal("match did not populate the cache")
	}

	// Accept one pair on the stored artifact so migration has a human
	// decision to preserve.
	arts := srv.Registry().MatchesBetween("billing", "crm")
	if len(arts) != 1 {
		t.Fatalf("artifacts = %d", len(arts))
	}
	accepted := *arts[0]
	accepted.Pairs = append([]registry.AssertedMatch(nil), arts[0].Pairs...)
	accepted.Pairs[0].Status = registry.StatusAccepted
	accepted.Pairs[0].ValidatedBy = "carol"
	if err := srv.Registry().UpdateMatch(accepted.ID, accepted); err != nil {
		t.Fatal(err)
	}
	acceptedPathA := accepted.Pairs[0].PathA

	// v2: rename one column, add one, drop one.
	v2 := testSchema("billing", "invoice_id", "amount_due", "customer_reference", "currency")
	resp := putSchema(t, ts.URL, v2, "", http.StatusOK)
	if !resp.Changed || resp.Version != 2 || resp.Report == nil {
		t.Fatalf("response = %+v", resp)
	}
	if resp.CacheInvalidated == 0 {
		t.Fatal("version bump did not invalidate the old fingerprint's cache entries")
	}
	if _, ok := srv.Cache().Get(CacheKey{
		FingerprintA: oldFp, FingerprintB: bFingerprint(srv), Preset: srv.cachePreset("name-only"), Threshold: 0.5,
	}); ok {
		t.Fatal("stale outcome still resident")
	}
	// Registry: version chain, no dangling artifacts.
	cur, _ := srv.Registry().Schema("billing")
	if cur.Version != 2 {
		t.Fatalf("current version = %d", cur.Version)
	}
	if problems := srv.Registry().ValidateArtifacts(); len(problems) != 0 {
		t.Fatalf("dangling after PUT: %v", problems)
	}
	// The accepted decision survived (kept or re-pathed).
	ma, _ := srv.Registry().Match(accepted.ID)
	found := false
	for _, p := range ma.Pairs {
		if p.Status == registry.StatusAccepted && p.ValidatedBy == "carol" {
			found = true
			if p.PathA != acceptedPathA && !strings.Contains(p.Note, "migrated-from=") {
				t.Fatalf("re-pathed pair lacks provenance: %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("accepted pair lost in migration")
	}
	// Stats reflect the upgrade.
	var st Stats
	do(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &st)
	if st.Evolve.Upgrades != 1 || st.Evolve.CacheInvalidated == 0 {
		t.Fatalf("evolve stats = %+v", st.Evolve)
	}

	// Identical content: no-op.
	resp = putSchema(t, ts.URL, v2, "", http.StatusOK)
	if resp.Changed || resp.Version != 2 {
		t.Fatalf("no-op response = %+v", resp)
	}
	// Unregistered name: 404.
	putSchema(t, ts.URL, testSchema("ghost", "x"), "", http.StatusNotFound)
	// Name mismatch: 400.
	mismatch := testSchema("crm", "x")
	body, _ := json.Marshal(mismatch)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/schemas/billing", strings.NewReader(string(body)))
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("name mismatch = %d", r2.StatusCode)
	}
}

func bFingerprint(srv *Server) string {
	e, _ := srv.Registry().Schema("crm")
	return e.Fingerprint
}

func TestPutSchemaAsyncMigrateJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	a := testSchema("inv", "part_number", "quantity_on_hand", "warehouse_code")
	b := testSchema("wms", "part_number", "quantity_on_hand", "bin_location")
	if err := srv.Registry().AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().AddSchema(b, ""); err != nil {
		t.Fatal(err)
	}
	var mr matchResponse
	do(t, http.MethodPost, ts.URL+"/v1/match", matchRequest{A: "inv", B: "wms"}, http.StatusOK, &mr)

	v2 := testSchema("inv", "part_number", "quantity_on_hand", "warehouse_code", "bin_location")
	resp := putSchema(t, ts.URL, v2, "?rematch=async", http.StatusOK)
	if resp.RematchJob == "" {
		t.Fatalf("async mode returned no job: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	var job Job
	for {
		do(t, http.MethodGet, ts.URL+"/v1/jobs/"+resp.RematchJob, nil, http.StatusOK, &job)
		if job.State == JobDone || job.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migrate job stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != JobDone {
		t.Fatalf("migrate job failed: %+v", job)
	}
	// The added element matches wms/bin_location: the scoped re-match must
	// have proposed it.
	ma := srv.Registry().MatchesBetween("inv", "wms")
	proposal := false
	for _, p := range ma[0].Pairs {
		if p.Note == "rematch=evolve" && strings.Contains(p.PathA, "bin_location") {
			proposal = true
		}
	}
	if !proposal {
		t.Fatalf("no scoped re-match proposal for the added element: %+v", ma[0].Pairs)
	}
	// A second migrate job for the same schema has nothing pending.
	var e apiError
	do(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{Kind: KindMigrate, A: "inv"}, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "no pending migration") {
		t.Fatalf("error = %q", e.Error)
	}
}

// TestUpgradeBlocksOnNewTokens: after a version-bumping PUT that renames
// and re-documents an element, corpus blocking sees the new version's
// tokens — the overlap it reports for the upgraded schema equals the
// overlap over a fresh registry holding only the new version.
func TestUpgradeBlocksOnNewTokens(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	v1 := testSchema("inv", "part_number", "quantity", "bin_location")
	v1.ByPath("record/quantity").Doc = "count on hand"
	postSchema(t, ts.URL, v1)
	postSchema(t, ts.URL, testSchema("other", "part_number", "supplier_code"))
	q := testSchema("query", "part_number", "quantity_cnt", "shelf_count", "reorder_flag")

	overlapOf := func(p *corpus.Pipeline) float64 {
		t.Helper()
		cands, _, err := p.Candidates(q, corpus.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c.Schema == "inv" {
				return c.Overlap
			}
		}
		t.Fatalf("inv is not a candidate: %+v", cands)
		return 0
	}
	before := overlapOf(srv.corpusPipe)

	v2 := testSchema("inv", "part_number", "quantity_cnt", "bin_location")
	v2.ByPath("record/quantity_cnt").Doc = "shelf count currently on hand"
	putSchema(t, ts.URL, v2, "?rematch=none", http.StatusOK)
	got := overlapOf(srv.corpusPipe)

	fresh := registry.New()
	if err := fresh.AddSchema(v2, ""); err != nil {
		t.Fatal(err)
	}
	want := overlapOf(corpus.NewPipeline(fresh, nil))
	if got != want {
		t.Fatalf("upgraded schema blocked at overlap %v, a fresh registry of v2 gives %v", got, want)
	}
	if got == before {
		t.Fatalf("overlap %v did not move across the upgrade", got)
	}
}

func TestChainedPutAbsorbsParkedMigration(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	a := testSchema("acct", "account_id", "balance_amount")
	b := testSchema("gl", "account_id", "balance_amount", "ledger_code", "branch_code")
	if err := srv.Registry().AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().AddSchema(b, ""); err != nil {
		t.Fatal(err)
	}
	var mr matchResponse
	do(t, http.MethodPost, ts.URL+"/v1/match", matchRequest{A: "acct", B: "gl"}, http.StatusOK, &mr)

	// PUT v2 with rematch deferred: ledger_code is dirty but unmatched.
	v2 := testSchema("acct", "account_id", "balance_amount", "ledger_code")
	putSchema(t, ts.URL, v2, "?rematch=none", http.StatusOK)
	// PUT v3 with sync rematch: branch_code is v3's own dirty element; the
	// parked v2 migration must be absorbed so ledger_code gets proposals
	// too.
	v3 := testSchema("acct", "account_id", "balance_amount", "ledger_code", "branch_code")
	resp := putSchema(t, ts.URL, v3, "", http.StatusOK)
	if resp.RematchError != "" {
		t.Fatalf("rematch failed: %s", resp.RematchError)
	}
	ma := srv.Registry().MatchesBetween("acct", "gl")
	wantProposals := map[string]bool{"record/ledger_code": false, "record/branch_code": false}
	for _, p := range ma[0].Pairs {
		if p.Note == "rematch=evolve" {
			if _, ok := wantProposals[p.PathA]; ok {
				wantProposals[p.PathA] = true
			}
		}
	}
	for path, got := range wantProposals {
		if !got {
			t.Fatalf("dirty element %s never re-matched after chained PUTs (pairs: %+v)", path, ma[0].Pairs)
		}
	}
	// Nothing left parked.
	if srv.evolveStats.hasPending("acct") {
		t.Fatal("absorbed migration still parked")
	}
}
