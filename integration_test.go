package harmony

// Integration tests exercising the full pipeline through the public API:
// generate -> match -> workflow -> partition -> export -> registry ->
// persistence, on a test-scale workload.

import (
	"bytes"
	"testing"
	"time"

	"harmony/internal/registry"
)

func TestIntegrationPipeline(t *testing.T) {
	// A 12x10-concept pair sharing 6 concepts.
	a, b, truth := GeneratePair(17, 12, 10, 6, 6)
	m := NewMatcher()

	// --- Step 1: summarize ---
	sumA, sumB := SummarizeRoots(a), SummarizeRoots(b)
	if sumA.Len() != 12 || sumB.Len() != 10 {
		t.Fatalf("summaries = %d/%d", sumA.Len(), sumB.Len())
	}

	// --- Step 2: team workflow with oracle reviewers ---
	session, err := m.NewSession(a, b, sumA)
	if err != nil {
		t.Fatal(err)
	}
	team := []string{"alice", "bob"}
	if err := session.Distribute(team); err != nil {
		t.Fatal(err)
	}
	reviewers := map[string]Reviewer{
		"alice": NewOracleReviewer("alice", truth, a.Name, b.Name, 1, 0, 1),
		"bob":   NewOracleReviewer("bob", truth, a.Name, b.Name, 1, 0, 2),
	}
	if err := session.RunAll(reviewers, nil); err != nil {
		t.Fatal(err)
	}
	done, total := session.Progress()
	if done != total || total != 12 {
		t.Fatalf("progress %d/%d", done, total)
	}
	accepted := session.Accepted()
	if len(accepted) == 0 {
		t.Fatal("workflow validated nothing")
	}
	// With perfect oracle reviewers every accepted match is true.
	prf := Score(truth, a, b, session.Correspondences())
	if prf.Precision != 1 {
		t.Errorf("perfect reviewers produced false accepts: %s", prf)
	}
	if prf.Recall < 0.4 {
		t.Errorf("workflow recall too low: %s", prf)
	}

	// --- Step 3: analysis products ---
	res := m.Match(a, b)
	part := res.Partition()
	st := part.Stats()
	if st.SizeA != a.Len() || st.SizeB != b.Len() {
		t.Fatalf("partition sizes: %+v", st)
	}
	if st.MatchedB == 0 || st.OnlyB == 0 {
		t.Errorf("partition should have both matched and distinct elements: %+v", st)
	}

	cms := res.LiftConcepts(sumA, sumB)
	if len(cms) == 0 {
		t.Error("no concept matches lifted")
	}
	correctCms := 0
	for _, cm := range cms {
		if cm.A.Anchor != nil && cm.B.Anchor != nil &&
			truth.IsMatch(a.Name, cm.A.Anchor.Path(), b.Name, cm.B.Anchor.Path()) {
			correctCms++
		}
	}
	if correctCms < len(cms)/2 {
		t.Errorf("concept matches mostly wrong: %d/%d", correctCms, len(cms))
	}

	// --- Step 4: export ---
	wb := res.Workbook(sumA, sumB, accepted)
	if wb.ConceptRows() != sumA.Len()+sumB.Len()-len(cms) {
		t.Errorf("concept rows = %d, want %d", wb.ConceptRows(), sumA.Len()+sumB.Len()-len(cms))
	}
	var buf bytes.Buffer
	if err := wb.WriteElementCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty element CSV")
	}
	buf.Reset()
	if err := res.WriteReport(&buf, sumA, sumB, accepted); err != nil {
		t.Fatal(err)
	}

	// --- Step 5: store in a durable registry with provenance ---
	dir := t.TempDir()
	store, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg := store.Registry()
	if err := reg.AddSchema(a, "org-a"); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddSchema(b, "org-b"); err != nil {
		t.Fatal(err)
	}
	artifact := registry.FromWorkflow(a.Name, b.Name, accepted, registry.ContextPlanning,
		"integration-test", time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC))
	id, err := reg.AddMatch(artifact)
	if err != nil {
		t.Fatal(err)
	}

	// --- Step 6: a restart of the store preserves everything ---
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	back := store.Registry()
	ma, ok := back.Match(id)
	if !ok {
		t.Fatal("artifact lost")
	}
	if len(ma.AcceptedPairs()) != len(accepted) {
		t.Errorf("pairs %d != accepted %d", len(ma.AcceptedPairs()), len(accepted))
	}
	// Trusted reuse: planning-grade pairs serve search-grade needs.
	if got := back.TrustedPairs(a.Name, b.Name, registry.ContextSearch); len(got) != len(accepted) {
		t.Errorf("trusted pairs = %d", len(got))
	}
}

func TestIntegrationMatcherAgainstTruth(t *testing.T) {
	// The automatic matcher alone (no human review) on a fresh pair:
	// quality must be solidly above chance on both precision and recall.
	a, b, truth := GeneratePair(23, 15, 12, 7, 7)
	m := NewMatcher()
	res := m.Match(a, b)
	prf := Score(truth, a, b, res.Correspondences())
	if prf.F1 < 0.5 {
		t.Errorf("automatic match quality too low: %s", prf)
	}
}

func TestIntegrationVocabularyConsistentWithPartition(t *testing.T) {
	// For N=2 the comprehensive vocabulary must agree with the binary
	// partition: exclusive terms == distinct elements, shared cells ==
	// matched pairs (one-to-one selection in both paths).
	a, b, _ := GeneratePair(31, 8, 8, 4, 5)
	m := NewMatcher()
	v, err := m.ComprehensiveVocabulary([]*Schema{a, b})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Match(a, b).Partition().Stats()
	if got := len(v.ExclusiveTo(0)); got != st.OnlyA {
		t.Errorf("vocabulary A-exclusive %d != partition OnlyA %d", got, st.OnlyA)
	}
	if got := len(v.ExclusiveTo(1)); got != st.OnlyB {
		t.Errorf("vocabulary B-exclusive %d != partition OnlyB %d", got, st.OnlyB)
	}
	if got := len(v.Cell(0b11)); got != st.Pairs {
		t.Errorf("shared cell %d != matched pairs %d", got, st.Pairs)
	}
}
