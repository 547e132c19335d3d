package corpus

import (
	"container/heap"
	"context"
	"sort"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/schema"
)

// TopK answers one corpus query: block the registry down to a candidate
// set, score the survivors with the engine across a sharded worker pool,
// and return the k best-matching schemata with their correspondences.
// The context cancels between candidate scorings. Fresh outcomes are
// published to the external cache after scoring, all at once, so their
// artifact writes share durable commits; TopK returns only after every
// Store has returned, cancelled or not.
func (p *Pipeline) TopK(ctx context.Context, eng *core.Engine, q *schema.Schema, cfg Config) (*Result, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	eng = cfg.engineFor(eng)
	res := &Result{Query: q.Name}
	qfp := q.Fingerprint()
	// Compile the query schema once for the whole query: every candidate
	// scoring below reuses the profile instead of re-deriving the query's
	// views and TF-IDF statistics per candidate.
	qprof := eng.Profile(q)

	cands := p.block(q, qfp, cfg, &res.Stats)

	start := time.Now()
	// The reuse context (which hubs have validated mappings from the
	// query, and the artifact pair index) is built once per query and
	// shared read-only across shards.
	var rctx *reuseContext
	if !cfg.NoReuse {
		rctx = newReuseContext(p.reg, q)
	}
	coll := &collector{k: cfg.TopK, stats: &res.Stats}
	workers := cfg.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	// fresh[i] holds candidate i's outcome when it must be published.
	var fresh []*SchemaMatch
	if p.cache != nil && cfg.Preset != "" {
		fresh = make([]*SchemaMatch, len(cands))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := shard; i < len(cands); i += workers {
				if ctx.Err() != nil {
					return
				}
				m, computed := p.scoreCandidate(eng, q, qprof, qfp, cands[i], cfg, rctx, coll)
				if computed && fresh != nil {
					fresh[i] = m
				}
				coll.offer(m)
			}
		}(w)
	}
	wg.Wait()
	p.publish(q.Name, qfp, cands, fresh, cfg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Stats.ScoreMillis = time.Since(start).Milliseconds()
	res.Matches = coll.ranked()
	return res, nil
}

// cacheKey is the external-cache key of one candidate's outcome.
func cacheKey(qfp string, c candidate, cfg Config) CacheKey {
	return CacheKey{
		FingerprintA: qfp,
		FingerprintB: c.entry.Fingerprint,
		Preset:       cfg.Preset,
		Threshold:    cfg.Threshold,
	}
}

// scoreCandidate produces the SchemaMatch for one candidate: external
// cache, composed (reused) mapping with partial-engine fallback, or a
// full engine run — in that order of preference. computed reports that
// the outcome did not come from the cache, so it is worth publishing.
func (p *Pipeline) scoreCandidate(eng *core.Engine, q *schema.Schema, qprof *core.CompiledProfile, qfp string, c candidate, cfg Config, rctx *reuseContext, coll *collector) (m *SchemaMatch, computed bool) {
	m = &SchemaMatch{Schema: c.entry.Schema.Name, BlockScore: c.bm25}
	if p.cache != nil && cfg.Preset != "" {
		if pairs, hub, ok := p.cache.Lookup(cacheKey(qfp, c, cfg)); ok {
			m.Pairs = pairs
			m.Score = aggregateScore(pairs, q, c.entry.Schema)
			m.Cached = true
			m.Hub = hub
			m.Reused = hub != ""
			coll.count(func(st *Stats) { st.CacheHits++ })
			return m, false
		}
	}

	if rctx != nil {
		if comp := rctx.compose(c.entry.Schema, q, cfg.Threshold, cfg.MinReuseCoverage); comp != nil {
			m.Pairs = comp.pairs
			m.Reused = true
			m.Hub = comp.hub
			if uncovered := uncoveredElements(q, comp.pairs); len(uncovered) > 0 {
				m.Pairs = append(m.Pairs, p.matchRemainder(eng, qprof, c.entry.Schema, uncovered, comp.pairs, cfg)...)
				coll.count(func(st *Stats) { st.EngineRuns++ })
			}
			sortPairs(m.Pairs)
			m.Score = aggregateScore(m.Pairs, q, c.entry.Schema)
			coll.count(func(st *Stats) { st.Reused++ })
			return m, true
		}
	}

	res := eng.MatchProfiles(qprof, eng.Profile(c.entry.Schema))
	m.Pairs = selectionPairs(res, cfg.Threshold)
	res.Release()
	m.Score = aggregateScore(m.Pairs, q, c.entry.Schema)
	coll.count(func(st *Stats) { st.EngineRuns++ })
	return m, true
}

// maxPublishers bounds publish's concurrent Store calls. It exceeds the
// default candidate budget, so a query at the defaults publishes every
// outcome at once; only larger candidate sets (exhaustive queries score
// the whole corpus) queue behind it.
const maxPublishers = 64

// publish stores a query's freshly computed outcomes (the non-nil slots
// of fresh, parallel to cands) in the external cache, one goroutine per
// outcome, and returns when every Store has returned. Concurrent stores
// are what let a group-committing journal under the cache merge the
// query's artifact writes into shared fsyncs.
func (p *Pipeline) publish(queryName, qfp string, cands []candidate, fresh []*SchemaMatch, cfg Config) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxPublishers)
	for i, m := range fresh {
		if m == nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(key CacheKey) {
			defer func() { <-sem; wg.Done() }()
			p.cache.Store(key, queryName, m)
		}(cacheKey(qfp, cands[i], cfg))
	}
	wg.Wait()
}

// matchRemainder engine-scores only the query elements a composed mapping
// left uncovered, excluding candidate paths the composition already
// claimed (the mapping stays one-to-one). The query side reuses the
// per-query compiled profile; only the candidate side resolves through
// the engine's profile cache. The uncovered rows are scored densely,
// against every candidate element, whatever sparse budget the query set.
func (p *Pipeline) matchRemainder(eng *core.Engine, qprof *core.CompiledProfile, cand *schema.Schema, uncovered []*schema.Element, composed []Pair, cfg Config) []Pair {
	sv, dv := core.PairProfiles(qprof, eng.Profile(cand))
	res := eng.WithOptions(core.WithSparse(0)).MatchScoped(sv, dv, uncovered)
	usedB := make(map[string]bool, len(composed))
	for _, pr := range composed {
		usedB[pr.PathB] = true
	}
	var out []Pair
	for _, c := range core.SelectGreedyOneToOne(res.Matrix, cfg.Threshold) {
		pb := res.Dst.View(c.Dst).El.Path()
		if usedB[pb] {
			continue
		}
		out = append(out, Pair{
			PathA: res.Src.View(c.Src).El.Path(),
			PathB: pb,
			Score: c.Score,
		})
	}
	res.Release()
	return out
}

// selectionPairs shapes a raw engine result into path-level pairs at the
// threshold.
func selectionPairs(res *core.Result, threshold float64) []Pair {
	sel := core.SelectGreedyOneToOne(res.Matrix, threshold)
	out := make([]Pair, 0, len(sel))
	for _, c := range sel {
		out = append(out, Pair{
			PathA: res.Src.View(c.Src).El.Path(),
			PathB: res.Dst.View(c.Dst).El.Path(),
			Score: c.Score,
		})
	}
	return out
}

// aggregateScore folds element correspondences into one schema-level
// similarity: the sum of pair scores over the smaller element count. A
// perfect sub-schema containment scores 1.
func aggregateScore(pairs []Pair, q, cand *schema.Schema) float64 {
	n := q.Len()
	if cand.Len() < n {
		n = cand.Len()
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for _, p := range pairs {
		sum += p.Score
	}
	s := sum / float64(n)
	if s > 1 {
		s = 1
	}
	return s
}

// uncoveredElements returns the query elements that appear in no composed
// pair.
func uncoveredElements(q *schema.Schema, pairs []Pair) []*schema.Element {
	covered := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		covered[p.PathA] = true
	}
	var out []*schema.Element
	for _, e := range q.Elements() {
		if !covered[e.Path()] {
			out = append(out, e)
		}
	}
	return out
}

// sortPairs orders pairs by descending score with path tie-breaks, the
// order reviewers read.
func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Score != ps[j].Score {
			return ps[i].Score > ps[j].Score
		}
		if ps[i].PathA != ps[j].PathA {
			return ps[i].PathA < ps[j].PathA
		}
		return ps[i].PathB < ps[j].PathB
	})
}

// --- streaming top-k collection -------------------------------------------

// collector maintains the shared top-k min-heap and the execution
// counters across scoring shards.
type collector struct {
	mu    sync.Mutex
	k     int
	heap  matchHeap
	stats *Stats
}

// offer inserts a scored match, displacing the current minimum when full.
func (c *collector) offer(m *SchemaMatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) < c.k {
		heap.Push(&c.heap, m)
		return
	}
	if betterMatch(m, c.heap[0]) {
		c.heap[0] = m
		heap.Fix(&c.heap, 0)
	}
}

// count applies a stats mutation under the collector lock.
func (c *collector) count(f func(*Stats)) {
	c.mu.Lock()
	f(c.stats)
	c.mu.Unlock()
}

// ranked drains the heap into best-first order.
func (c *collector) ranked() []SchemaMatch {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SchemaMatch, 0, len(c.heap))
	for _, m := range c.heap {
		out = append(out, *m)
	}
	sortMatches(out)
	return out
}

// matchHeap is a min-heap by score (worst retained match at the root).
type matchHeap []*SchemaMatch

func (h matchHeap) Len() int { return len(h) }
func (h matchHeap) Less(i, j int) bool {
	return betterMatch(h[j], h[i]) // min-heap: root is the worst
}
func (h matchHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *matchHeap) Push(x any)     { *h = append(*h, x.(*SchemaMatch)) }
func (h *matchHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
func betterMatch(a, b *SchemaMatch) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Schema < b.Schema
}
