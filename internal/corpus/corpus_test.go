package corpus

import (
	"context"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

// buildRegistry registers a synthetic collection.
func buildRegistry(t testing.TB, schemas []*schema.Schema) *registry.Registry {
	t.Helper()
	reg := registry.New()
	for _, s := range schemas {
		if err := reg.AddSchema(s, "synth"); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestTopKRanksOwnDomainFirst(t *testing.T) {
	schemas, labels, _ := synth.Collection(11, 4, 4)
	reg := buildRegistry(t, schemas)
	p := NewPipeline(reg, nil)
	eng := core.PresetCOMA()

	res, err := p.TopK(context.Background(), eng, schemas[0], Config{
		Candidates: 8, TopK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query != schemas[0].Name {
		t.Errorf("Query = %q", res.Query)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("got %d matches, want 3", len(res.Matches))
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Score > res.Matches[i-1].Score {
			t.Errorf("matches not sorted: %v", res.Matches)
		}
	}
	// The best hit must come from the query's planted domain.
	top := res.Matches[0]
	for i, s := range schemas {
		if s.Name == top.Schema && labels[i] != labels[0] {
			t.Errorf("top match %q from domain %d, want %d", top.Schema, labels[i], labels[0])
		}
	}
	if top.Schema == schemas[0].Name {
		t.Error("query matched itself")
	}
	if len(top.Pairs) == 0 {
		t.Error("top match has no correspondences")
	}
	st := res.Stats
	if st.CorpusSize != len(schemas)-1 {
		t.Errorf("CorpusSize = %d, want %d", st.CorpusSize, len(schemas)-1)
	}
	if st.Candidates == 0 || st.Candidates > 8 {
		t.Errorf("Candidates = %d, want 1..8", st.Candidates)
	}
	if st.EngineRuns == 0 {
		t.Error("no engine runs recorded")
	}
}

// TestBlockBudgetTerminatesBlocking pins the budget wiring: a tiny
// BlockBudget truncates the blocking retrieval, the stats report it, and
// the pipeline still returns ranked matches from whatever candidates the
// truncated retrieval surfaced. An unbudgeted run reports exact blocking.
func TestBlockBudgetTerminatesBlocking(t *testing.T) {
	schemas, _, _ := synth.Collection(31, 4, 8)
	reg := buildRegistry(t, schemas)
	p := NewPipeline(reg, nil)
	eng := core.PresetCOMA()

	exact, err := p.TopK(context.Background(), eng, schemas[0], Config{Candidates: 8, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.BlockTerminated {
		t.Fatalf("unbudgeted query reported blocking termination: %+v", exact.Stats)
	}
	if exact.Stats.BlockDocsScored == 0 {
		t.Fatalf("no blocking docs scored: %+v", exact.Stats)
	}

	budget := exact.Stats.BlockDocsScored / 4
	if budget < 1 {
		budget = 1
	}
	res, err := p.TopK(context.Background(), eng, schemas[0], Config{
		Candidates: 8, TopK: 3, BlockBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.BlockTerminated {
		t.Fatalf("budget %d (vs %d exact) did not terminate blocking: %+v",
			budget, exact.Stats.BlockDocsScored, res.Stats)
	}
	if res.Stats.BlockDocsScored > budget {
		t.Fatalf("budget overrun: %d > %d", res.Stats.BlockDocsScored, budget)
	}
	if len(res.Matches) == 0 {
		t.Fatal("budgeted corpus query returned nothing")
	}
}

// TestBlockedBeatsExhaustive is the subsystem's acceptance measurement:
// on a 200-schema corpus the blocked pipeline must run at least 9x fewer
// engine matches than exhaustive matching while agreeing with the
// exhaustive top-5 at recall >= 0.9.
func TestBlockedBeatsExhaustive(t *testing.T) {
	schemas, _, _ := synth.Collection(42, 8, 25)
	reg := buildRegistry(t, schemas)
	eng := core.PresetNameOnly() // cheapest preset: keeps the exhaustive baseline runnable
	const k = 5

	queries := []*schema.Schema{schemas[3], schemas[120]}
	var blockedTime, exhaustiveTime time.Duration
	var blockedRuns, exhaustiveRuns int
	agree, total := 0, 0
	for _, q := range queries {
		// Fresh pipelines per mode so compiled-profile caching cannot
		// subsidize either side.
		pBlocked := NewPipeline(reg, nil)
		start := time.Now()
		blocked, err := pBlocked.TopK(context.Background(), eng, q, Config{
			Candidates: 20, TopK: k,
		})
		blockedTime += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}

		pEx := NewPipeline(reg, nil)
		start = time.Now()
		exhaustive, err := pEx.TopK(context.Background(), eng, q, Config{
			TopK: k, Exhaustive: true,
		})
		exhaustiveTime += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}

		if got := exhaustive.Stats.EngineRuns; got != len(schemas)-1 {
			t.Fatalf("exhaustive ran %d engine matches, want %d", got, len(schemas)-1)
		}
		if blocked.Stats.EngineRuns > 20 {
			t.Fatalf("blocked ran %d engine matches, budget 20", blocked.Stats.EngineRuns)
		}
		blockedRuns += blocked.Stats.EngineRuns
		exhaustiveRuns += exhaustive.Stats.EngineRuns

		want := make(map[string]bool, k)
		for _, m := range exhaustive.Matches {
			want[m.Schema] = true
		}
		for _, m := range blocked.Matches {
			if want[m.Schema] {
				agree++
			}
		}
		total += k
	}
	recall := float64(agree) / float64(total)
	if recall < 0.9 {
		t.Errorf("top-%d recall vs exhaustive = %.2f, want >= 0.9", k, recall)
	}
	speedup := float64(exhaustiveTime) / float64(blockedTime)
	t.Logf("blocked=%v exhaustive=%v speedup=%.1fx engine runs %d vs %d recall=%.2f",
		blockedTime, exhaustiveTime, speedup, blockedRuns, exhaustiveRuns, recall)
	// The gate is the work blocking saves, counted in engine runs; the
	// wall-clock ratio above is logged only, since it flakes on a loaded
	// machine.
	if exhaustiveRuns < 9*blockedRuns {
		t.Errorf("exhaustive ran %d engine matches, blocked %d: want at least 9x fewer", exhaustiveRuns, blockedRuns)
	}
}

// TestBlockedTopHitMatchesExhaustive: with a tight k against a wide
// candidate set, the blocked pipeline's top hit is the exhaustive one,
// and every candidate that survived blocking is engine-scored.
func TestBlockedTopHitMatchesExhaustive(t *testing.T) {
	schemas, _, _ := synth.Collection(7, 4, 6)
	reg := buildRegistry(t, schemas)
	eng := core.PresetCOMA()
	p := NewPipeline(reg, nil)

	res, err := p.TopK(context.Background(), eng, schemas[0], Config{
		Candidates: 20, TopK: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.TopK(context.Background(), eng, schemas[0], Config{
		TopK: 1, Exhaustive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || len(ex.Matches) == 0 {
		t.Fatal("missing matches")
	}
	if res.Matches[0].Schema != ex.Matches[0].Schema {
		t.Errorf("blocked top hit %q != exhaustive %q", res.Matches[0].Schema, ex.Matches[0].Schema)
	}
	if res.Stats.EngineRuns != res.Stats.Candidates {
		t.Errorf("accounting broken: runs=%d candidates=%d", res.Stats.EngineRuns, res.Stats.Candidates)
	}
}

func TestCancellation(t *testing.T) {
	schemas, _, _ := synth.Collection(3, 3, 4)
	reg := buildRegistry(t, schemas)
	p := NewPipeline(reg, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.TopK(ctx, core.PresetNameOnly(), schemas[0], Config{}); err == nil {
		t.Fatal("cancelled context did not error")
	}
}

func TestQueryValidation(t *testing.T) {
	p := NewPipeline(registry.New(), nil)
	eng := core.PresetNameOnly()
	if _, err := p.TopK(context.Background(), eng, nil, Config{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := p.TopK(context.Background(), eng, schema.New("", schema.FormatRelational), Config{}); err == nil {
		t.Error("unnamed query accepted")
	}
	if _, err := p.TopK(context.Background(), eng, schema.New("empty", schema.FormatRelational), Config{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestUnregisteredQueryWorks(t *testing.T) {
	// The query need not be registered: "use one's target schema as the
	// query term" includes schemata the MDR has never seen.
	schemas, _, _ := synth.Collection(19, 3, 4)
	reg := buildRegistry(t, schemas[1:])
	p := NewPipeline(reg, nil)
	res, err := p.TopK(context.Background(), core.PresetCOMA(), schemas[0], Config{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches for unregistered query")
	}
	if res.Stats.CorpusSize != len(schemas)-1 {
		t.Errorf("CorpusSize = %d, want %d", res.Stats.CorpusSize, len(schemas)-1)
	}
}

// memCache is a test double for the external cache.
type memCache struct {
	mu      sync.Mutex
	entries map[CacheKey][]Pair
	hubs    map[CacheKey]string
	lookups int
	stores  int
}

func newMemCache() *memCache {
	return &memCache{entries: make(map[CacheKey][]Pair), hubs: make(map[CacheKey]string)}
}

func (c *memCache) Lookup(key CacheKey) ([]Pair, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	p, ok := c.entries[key]
	return p, c.hubs[key], ok
}

func (c *memCache) Store(key CacheKey, _ string, m *SchemaMatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	c.entries[key] = m.Pairs
	c.hubs[key] = m.Hub
}

func TestExternalCacheRoundTrip(t *testing.T) {
	schemas, _, _ := synth.Collection(23, 3, 3)
	reg := buildRegistry(t, schemas)
	cache := newMemCache()
	p := NewPipeline(reg, cache)
	eng := core.PresetCOMA()
	cfg := Config{Candidates: 6, TopK: 3, Preset: "coma"}

	first, err := p.TopK(context.Background(), eng, schemas[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stores == 0 {
		t.Fatal("first query stored nothing")
	}
	if first.Stats.CacheHits != 0 {
		t.Errorf("first query hit the cache %d times", first.Stats.CacheHits)
	}
	storesAfterFirst := cache.stores

	second, err := p.TopK(context.Background(), eng, schemas[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHits == 0 {
		t.Error("repeat query never hit the cache")
	}
	if second.Stats.EngineRuns != 0 {
		t.Errorf("repeat query ran the engine %d times", second.Stats.EngineRuns)
	}
	if cache.stores != storesAfterFirst {
		t.Errorf("repeat query stored %d new entries", cache.stores-storesAfterFirst)
	}
	// Cached and fresh outcomes agree.
	if len(first.Matches) != len(second.Matches) {
		t.Fatalf("match counts differ: %d vs %d", len(first.Matches), len(second.Matches))
	}
	for i := range first.Matches {
		if first.Matches[i].Schema != second.Matches[i].Schema || first.Matches[i].Score != second.Matches[i].Score {
			t.Errorf("match %d differs: %+v vs %+v", i, first.Matches[i], second.Matches[i])
		}
		if !second.Matches[i].Cached {
			t.Errorf("match %d not marked cached", i)
		}
	}
	// A different preset is a different key space.
	if _, err := p.TopK(context.Background(), eng, schemas[0], Config{
		Candidates: 6, TopK: 3, Preset: "other",
	}); err != nil {
		t.Fatal(err)
	}
	if cache.stores == storesAfterFirst {
		t.Error("different preset reused the same cache keys")
	}
}

// TestOverlapCoefficient pins the overlap blocking reads from the search
// index: |Q∩D| / min(|Q|,|D|) over unique name and doc tokens, where |Q|
// counts query tokens no registered schema has ever used.
func TestOverlapCoefficient(t *testing.T) {
	build := func(name, root string, cols ...string) *schema.Schema {
		s := schema.New(name, schema.FormatRelational)
		tbl := s.AddRoot(root, schema.KindTable)
		for _, c := range cols {
			s.AddElement(tbl, c, schema.KindColumn, schema.TypeString)
		}
		return s
	}
	// Q = {order, total, ship, date, part, zqxvwj}; zqxvwj is in no
	// registered schema.
	q := build("q", "order", "total", "ship_date", "part", "zqxvwj")
	reg := buildRegistry(t, []*schema.Schema{
		build("superset", "order", "total", "ship_date", "part", "weight", "name"), // 5 shared of 6 vs 7
		build("half", "ship", "date", "alpha", "bravo"),                            // 2 shared of 6 vs 4
		build("disjoint", "alpha", "bravo"),                                        // no shared token: no hit
	})
	cands, _, err := NewPipeline(reg, nil).Candidates(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64, len(cands))
	for _, c := range cands {
		got[c.Schema] = c.Overlap
	}
	want := map[string]float64{"superset": 5.0 / 6.0, "half": 2.0 / 4.0}
	if len(got) != len(want) {
		t.Fatalf("candidates %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("overlap(%s) = %v, want %v", name, got[name], w)
		}
	}
}
