package corpus

import (
	"sort"

	"harmony/internal/registry"
	"harmony/internal/schema"
)

// composedMapping is a query→candidate correspondence set obtained by
// composing stored artifacts through one hub schema.
type composedMapping struct {
	hub   string
	pairs []Pair
	// coverage is the fraction of the query's hub-mapped elements that
	// survived composition (an element can drop out when its hub partner
	// has no mapping onward to the candidate, or the multiplied score
	// falls below threshold).
	coverage float64
}

// half is one directed element mapping extracted from stored artifacts:
// source path → best (target path, score).
type half map[string]struct {
	path  string
	score float64
}

// pairKey identifies an unordered schema pair.
type pairKey struct{ a, b string }

func pairKeyOf(a, b string) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{a, b}
}

// reuseContext is the query-side half of mapping reuse, built once per
// corpus query from the registry's per-schema artifact index and then
// shared read-only across the scoring shards. Only human-accepted pairs
// participate: the paper's story is reuse of previously *validated*
// mappings, and machine-proposed artifacts (such as the ones the service
// itself persists, whatever preset produced them) must not recursively
// feed future compositions.
type reuseContext struct {
	qToHub map[string]half // hub schema -> query→hub accepted mapping
	byPair map[pairKey][]*registry.MatchArtifact
}

// newReuseContext indexes the artifacts reuse can reach from one query
// schema: the query's own, then each accepted hub's. It returns nil when
// no accepted mapping touches the query — the common case, which lets the
// scoring stage skip reuse entirely. Its cost depends on the artifacts
// involving the query and its hubs, not on how many are stored.
func newReuseContext(reg *registry.Registry, q *schema.Schema) *reuseContext {
	qToHub := make(map[string]half)
	for _, ma := range reg.MatchesInvolving(q.Name) {
		hub := ma.SchemaA
		if hub == q.Name {
			hub = ma.SchemaB
		}
		if hub == q.Name {
			continue
		}
		m := qToHub[hub]
		if m == nil {
			m = make(half)
			qToHub[hub] = m
		}
		mergeDirected(m, ma, q.Name)
	}
	for hub, m := range qToHub {
		if len(m) == 0 {
			delete(qToHub, hub)
		}
	}
	if len(qToHub) == 0 {
		return nil
	}
	rc := &reuseContext{
		qToHub: qToHub,
		byPair: make(map[pairKey][]*registry.MatchArtifact),
	}
	// compose reads byPair only for hub↔candidate pairs. An artifact
	// between two hubs is filed once, from the first hub in name order,
	// so every pair's list stays in ID order without duplicates.
	hubs := rc.hubNames("")
	for i, hub := range hubs {
		for _, ma := range reg.MatchesInvolving(hub) {
			other := ma.SchemaA
			if other == hub {
				other = ma.SchemaB
			}
			if j := sort.SearchStrings(hubs, other); j < i && hubs[j] == other {
				continue
			}
			k := pairKeyOf(ma.SchemaA, ma.SchemaB)
			rc.byPair[k] = append(rc.byPair[k], ma)
		}
	}
	return rc
}

// compose realizes the paper's mapping-reuse story for one candidate: if
// the registry holds accepted mappings query↔hub and hub↔candidate,
// compose them into a query→candidate mapping (score multiplication
// through the hub) instead of re-matching from scratch. Composed scores
// below threshold are dropped; the result is one-to-one. Among eligible
// hubs the best-covering composition wins; nil means no hub clears
// minCoverage and the caller should fall back to the engine.
func (rc *reuseContext) compose(cand *schema.Schema, q *schema.Schema, threshold, minCoverage float64) *composedMapping {
	var best *composedMapping
	for _, hub := range rc.hubNames(cand.Name) {
		qToHub := rc.qToHub[hub]
		hubToCand := make(half)
		for _, ma := range rc.byPair[pairKeyOf(hub, cand.Name)] {
			mergeDirected(hubToCand, ma, hub)
		}
		if len(hubToCand) == 0 {
			continue
		}
		comp := compose(qToHub, hubToCand, q, cand, threshold)
		if comp == nil {
			continue
		}
		comp.hub = hub
		comp.coverage = float64(len(comp.pairs)) / float64(len(qToHub))
		if comp.coverage < minCoverage {
			continue
		}
		if best == nil || len(comp.pairs) > len(best.pairs) ||
			(len(comp.pairs) == len(best.pairs) && comp.hub < best.hub) {
			best = comp
		}
	}
	return best
}

// hubNames lists the hubs with an accepted query mapping in a stable
// order, excluding the candidate itself (a direct query↔candidate
// artifact is reuse through the cache, not composition).
func (rc *reuseContext) hubNames(cand string) []string {
	out := make([]string, 0, len(rc.qToHub))
	for h := range rc.qToHub {
		if h != cand {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// composeVia is the single-candidate form of the reuse stage, used by
// tests; TopK builds one reuseContext per query instead.
func composeVia(reg *registry.Registry, q, cand *schema.Schema, threshold, minCoverage float64) *composedMapping {
	rc := newReuseContext(reg, q)
	if rc == nil {
		return nil
	}
	return rc.compose(cand, q, threshold, minCoverage)
}

// mergeDirected folds one artifact's accepted pairs into a from→to
// element mapping oriented so that `from` is the source side, keeping the
// best-scoring accepted assertion per source path.
func mergeDirected(m half, ma *registry.MatchArtifact, from string) {
	flip := ma.SchemaA != from
	for _, p := range ma.Pairs {
		if p.Status != registry.StatusAccepted {
			continue
		}
		src, dst := p.PathA, p.PathB
		if flip {
			src, dst = dst, src
		}
		if cur, ok := m[src]; !ok || p.Score > cur.score {
			m[src] = struct {
				path  string
				score float64
			}{dst, p.Score}
		}
	}
}

// compose multiplies the two mapping halves, validates paths against the
// current schema versions, filters by threshold, and enforces a
// one-to-one result greedily by score.
func compose(qToHub, hubToCand half, q, cand *schema.Schema, threshold float64) *composedMapping {
	var raw []Pair
	for pa, viaHub := range qToHub {
		onward, ok := hubToCand[viaHub.path]
		if !ok {
			continue
		}
		score := viaHub.score * onward.score
		if score < threshold {
			continue
		}
		if q.ByPath(pa) == nil || cand.ByPath(onward.path) == nil {
			// The schema content drifted since the artifact was stored.
			continue
		}
		raw = append(raw, Pair{PathA: pa, PathB: onward.path, Score: score})
	}
	if len(raw) == 0 {
		return nil
	}
	sortPairs(raw)
	usedA := make(map[string]bool, len(raw))
	usedB := make(map[string]bool, len(raw))
	out := raw[:0]
	for _, p := range raw {
		if usedA[p.PathA] || usedB[p.PathB] {
			continue
		}
		usedA[p.PathA] = true
		usedB[p.PathB] = true
		out = append(out, p)
	}
	return &composedMapping{pairs: out}
}
