package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"harmony/internal/schema"
	"harmony/internal/synth"
	"harmony/internal/text"
)

// The block-max scorer's contract is bit-identical top-k to exhaustive
// accumulation — scores and order, with the deterministic name tie-break.
// These tests hold it to that with (a) an in-package exhaustive scorer
// sharing the posting data (SearchTokensExhaustive), and (b) a fully
// independent naive reference that rebuilds BM25 from the raw token
// profiles with no interning, no segments and no pruning, under
// interleaved Add/Remove/Replace churn and background merges.

// naiveRef is the independent BM25 oracle: string-keyed postings, exact
// df, contributions folded in ascending interned-term order to mirror the
// canonical summation order of the real scorer.
type naiveRef struct {
	docs map[string][]string // name -> normalized whole-schema profile
}

func newNaiveRef() *naiveRef { return &naiveRef{docs: make(map[string][]string)} }

func (r *naiveRef) add(s *schema.Schema) { r.docs[s.Name] = SchemaProfile(s) }
func (r *naiveRef) remove(name string)   { delete(r.docs, name) }

func (r *naiveRef) search(tokens []string, k int) []Result {
	n := len(r.docs)
	if n == 0 || len(tokens) == 0 {
		return nil
	}
	var totalLen int64
	tf := make(map[string]map[uint32]int, n) // name -> termID -> tf
	lens := make(map[string]int, n)
	df := make(map[uint32]int)
	for name, profile := range r.docs {
		m := make(map[uint32]int, len(profile))
		for _, tok := range profile {
			id, _ := text.InternMasked(tok)
			m[id]++
		}
		tf[name] = m
		lens[name] = len(profile)
		totalLen += int64(len(profile))
		for id := range m {
			df[id]++
		}
	}
	avgLen := float64(totalLen) / float64(n)
	if avgLen == 0 {
		avgLen = 1
	}
	// Canonical query term list: ascending interned ID, saturating qtf.
	counts := make(map[uint32]int)
	for _, tok := range tokens {
		if id, ok := text.LookupInterned(tok); ok {
			counts[id]++
		}
	}
	ids := make([]uint32, 0, len(counts))
	for id := range counts {
		if df[id] > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		return nil
	}
	var hits []Result
	for name, m := range tf {
		var score float64
		for _, id := range ids {
			t, ok := m[id]
			if !ok {
				continue
			}
			qw := 1 + 0.2*float64(counts[id]-1)
			idf := bm25IDF(n, df[id])
			score += contrib(idf, qw, float64(t), float64(lens[name]), avgLen)
		}
		if score > 0 {
			hits = append(hits, Result{Schema: name, Score: score})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Schema < hits[j].Schema
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

func requireIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Schema != want[i].Schema || got[i].Fragment != want[i].Fragment || got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d differs (bit-exact compare)\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

// queryTokensFor builds a mixed query: some tokens from a live schema's
// profile, some free text, some garbage that was never indexed.
func queryTokensFor(rng *rand.Rand, schemas []*schema.Schema) []string {
	s := schemas[rng.Intn(len(schemas))]
	profile := SchemaProfile(s)
	var toks []string
	if len(profile) > 0 {
		for i := 0; i < 3+rng.Intn(12); i++ {
			toks = append(toks, profile[rng.Intn(len(profile))])
		}
	}
	if rng.Intn(2) == 0 {
		toks = append(toks, text.NormalizeDoc("unit status maintenance blood record")...)
	}
	if rng.Intn(3) == 0 {
		toks = append(toks, fmt.Sprintf("nevertokenized%d", rng.Intn(1000)))
	}
	return toks
}

// TestBlockMaxMatchesExhaustive churns an index through interleaved
// Add/Remove/Replace (crossing merge thresholds via Tune) and asserts
// after every step that the block-max top-k equals both the in-package
// exhaustive scorer and the independent naive reference, bit-exactly.
func TestBlockMaxMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schemas, _, _ := synth.Collection(seed, 5, 8) // 40 schemas
			ix := NewIndex()
			ix.tailMerge = 8 // tiny merge floor: every few ops crosses a merge
			ref := newNaiveRef()

			live := make(map[string]*schema.Schema)
			for step := 0; step < 220; step++ {
				s := schemas[rng.Intn(len(schemas))]
				switch op := rng.Intn(10); {
				case op < 6 || len(live) < 4: // add / replace
					ix.Add(s)
					ref.add(s)
					live[s.Name] = s
				case op < 8: // remove (possibly unknown — must be a no-op)
					ix.Remove(s.Name)
					ref.remove(s.Name)
					delete(live, s.Name)
				default: // forced merge
					ix.Compact()
				}
				if step%7 == 3 {
					ix.quiesce() // settle background merges so df is stable
				} else {
					continue // only compare on settled steps: merges race df
				}
				if len(live) == 0 {
					continue
				}
				toks := queryTokensFor(rng, schemas)
				k := 1 + rng.Intn(12)
				fast := ix.SearchTokens(toks, k)
				slow := ix.SearchTokensExhaustive(toks, k)
				requireIdentical(t, fmt.Sprintf("step %d (vs exhaustive)", step), fast, slow)
				naive := ref.search(toks, k)
				requireIdentical(t, fmt.Sprintf("step %d (vs naive ref)", step), fast, naive)
			}
			ix.Compact()
			toks := queryTokensFor(rng, schemas)
			requireIdentical(t, "final", ix.SearchTokens(toks, 10), ref.search(toks, 10))
		})
	}
}

// TestBlockMaxExactUnderConcurrentChurn runs searchers asserting
// fast==exhaustive while writers churn — under -race this also proves the
// merge locking. A comparison is only meaningful when both scorers see
// one index state, so each fast/exhaustive pair runs with the writers
// held out by a test-level mutex (background merges still race freely).
func TestBlockMaxExactUnderConcurrentChurn(t *testing.T) {
	schemas, _, _ := synth.Collection(11, 4, 6)
	ix := NewIndex()
	ix.tailMerge = 16
	for _, s := range schemas {
		ix.Add(s)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 120; i++ {
				s := schemas[rng.Intn(len(schemas))]
				mu.Lock()
				if rng.Intn(4) == 0 {
					ix.Remove(s.Name)
				} else {
					ix.Add(s)
				}
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < 60; i++ {
				toks := queryTokensFor(rng, schemas)
				k := 1 + rng.Intn(8)
				// Hold the writers out so fast and exhaustive see one state.
				mu.Lock()
				fast := ix.SearchTokens(toks, k)
				slow := ix.SearchTokensExhaustive(toks, k)
				mu.Unlock()
				if len(fast) != len(slow) {
					t.Errorf("reader %d iter %d: len %d vs %d", r, i, len(fast), len(slow))
					return
				}
				for j := range fast {
					if fast[j] != slow[j] || math.IsNaN(fast[j].Score) {
						t.Errorf("reader %d iter %d: result %d %+v vs %+v", r, i, j, fast[j], slow[j])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for _, s := range schemas {
		ix.Add(s)
	}
	ix.Compact()
	if ix.Len() != len(schemas) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(schemas))
	}
}

// TestFragmentSearchExact pins the fragment space to the same contract:
// fragment block-max results carry the (name, fragment) tie-break.
func TestFragmentSearchExact(t *testing.T) {
	schemas, _, _ := synth.Collection(23, 4, 10)
	ix := NewIndex()
	ix.tailMerge = 8
	for _, s := range schemas {
		ix.Add(s)
	}
	ix.Compact()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		toks := queryTokensFor(rng, schemas)
		k := 1 + rng.Intn(10)
		var fastInfo, slowInfo QueryInfo
		fast := ix.frags.searchUnderLock(ix, toks, k, false, &fastInfo)
		slow := ix.frags.searchUnderLock(ix, toks, k, true, &slowInfo)
		requireIdentical(t, fmt.Sprintf("frag query %d", i), fast, slow)
	}
}

// searchUnderLock is a test helper running one space search with the
// index read lock held, selecting the exhaustive or block-max path.
func (sp *space) searchUnderLock(ix *Index, tokens []string, k int, exhaustive bool, info *QueryInfo) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return sp.search(tokens, k, 0, exhaustive, info)
}
