package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/partition"
	"harmony/internal/registry"
	"harmony/internal/schema"
)

// Job kinds accepted by POST /v1/jobs.
const (
	KindMatch      = "match"
	KindVocabulary = "vocabulary"
	KindCluster    = "cluster"
	KindCorpus     = "corpus"
	// KindMigrate runs the scoped re-match of a schema upgraded via
	// PUT /v1/schemas/{name} with rematch deferred (mode async submits it
	// automatically; mode none leaves the migration parked for a manual
	// job). A names the upgraded schema.
	KindMigrate = "migrate"
)

// JobRequest is the wire form of one job submission.
type JobRequest struct {
	// Kind selects the workload: "match", "vocabulary" or "cluster".
	Kind string `json:"kind"`
	// A and B name the registered schemata of a match job.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Schemas names the registered schemata of a vocabulary or cluster
	// job (vocabulary needs ≥ 2, cluster ≥ 3).
	Schemas []string `json:"schemas,omitempty"`
	// Preset and Threshold override the server defaults when non-zero.
	Preset    string  `json:"preset,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// K fixes the cluster count of a cluster job (0 uses the largest-gap
	// heuristic) or the result count of a corpus job (0 uses the server
	// default).
	K int `json:"k,omitempty"`
	// Exact makes a cluster job run full pairwise matches instead of the
	// quick token-profile distances.
	Exact bool `json:"exact,omitempty"`
	// Query names the registered query schema of a corpus job.
	Query string `json:"query,omitempty"`
	// Candidates overrides the blocking budget of a corpus job.
	Candidates int `json:"candidates,omitempty"`
	// BlockBudget overrides the blocking index's document-scoring budget
	// of a corpus job (0 = server default).
	BlockBudget int `json:"blockBudget,omitempty"`
	// Exhaustive makes a corpus job score every registered schema instead
	// of blocking first (the ground-truth mode; expensive).
	Exhaustive bool `json:"exhaustive,omitempty"`
	// NoReuse disables composed-mapping reuse in a corpus job.
	NoReuse bool `json:"noReuse,omitempty"`
}

// MatchJobResult is a match job's Result payload.
type MatchJobResult struct {
	A       string        `json:"a"`
	B       string        `json:"b"`
	Cached  bool          `json:"cached"`
	Outcome *MatchOutcome `json:"outcome"`
}

// VocabularyJobResult is a vocabulary job's Result payload: the 2^N-1
// Venn-cell census of the comprehensive vocabulary.
type VocabularyJobResult struct {
	Schemas     []string       `json:"schemas"`
	Terms       int            `json:"terms"`
	Cells       map[string]int `json:"cells"`
	SharedByAll int            `json:"sharedByAll"`
}

// ClusterJobResult is a cluster job's Result payload.
type ClusterJobResult struct {
	Schemas []string `json:"schemas"`
	K       int      `json:"k"`
	Labels  []int    `json:"labels"`
	Exact   bool     `json:"exact"`
}

// buildJob validates a request against the current registry state and
// returns the job function. Schemas are resolved at submission time so a
// bad request fails fast with 400 rather than as a failed job.
func (s *Server) buildJob(req JobRequest) (JobFunc, error) {
	preset, threshold, err := s.matchParams(req.Preset, req.Threshold)
	if err != nil {
		return nil, err
	}
	switch req.Kind {
	case KindMatch:
		if req.A == "" || req.B == "" {
			return nil, fmt.Errorf("match job needs schema names a and b")
		}
		ea, eb, err := s.lookupPair(req.A, req.B)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, cached, err := s.matchCached(ctx, ea, eb, preset, threshold)
			if err != nil {
				return nil, err
			}
			return &MatchJobResult{A: req.A, B: req.B, Cached: cached, Outcome: out}, nil
		}, nil

	case KindVocabulary:
		if len(req.Schemas) < 2 {
			return nil, fmt.Errorf("vocabulary job needs ≥ 2 schemas, got %d", len(req.Schemas))
		}
		schemas, err := s.lookupSchemas(req.Schemas)
		if err != nil {
			return nil, err
		}
		eng := s.engines[preset]
		return func(ctx context.Context) (any, error) {
			v, err := partition.BuildFromEngine(ctx, eng, schemas, threshold)
			if err != nil {
				return nil, err
			}
			out := &VocabularyJobResult{
				Schemas:     req.Schemas,
				Terms:       len(v.Terms),
				Cells:       make(map[string]int),
				SharedByAll: len(v.SharedByAll()),
			}
			for mask, n := range v.CellCounts() {
				out.Cells[v.MaskName(mask)] = n
			}
			return out, nil
		}, nil

	case KindCluster:
		if len(req.Schemas) < 3 {
			return nil, fmt.Errorf("cluster job needs ≥ 3 schemas, got %d", len(req.Schemas))
		}
		schemas, err := s.lookupSchemas(req.Schemas)
		if err != nil {
			return nil, err
		}
		if req.K < 0 || req.K > len(schemas) {
			return nil, fmt.Errorf("cluster job k=%d out of range [0,%d]", req.K, len(schemas))
		}
		eng := s.engines[preset]
		return func(ctx context.Context) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var d *cluster.DistanceMatrix
			if req.Exact {
				var err error
				if d, err = cluster.Distances(ctx, eng, schemas, threshold); err != nil {
					return nil, err
				}
			} else {
				d = cluster.QuickDistances(schemas)
			}
			dg := cluster.Agglomerative(d, cluster.Average)
			k := req.K
			if k == 0 {
				k = dg.SuggestCut()
			}
			return &ClusterJobResult{
				Schemas: req.Schemas, K: k, Labels: dg.Cut(k), Exact: req.Exact,
			}, nil
		}, nil

	case KindCorpus:
		// Validation (query registered, params in range) happens at
		// submission time inside corpusTopK's fail-fast path; the heavy
		// pipeline runs on a worker.
		if req.Query == "" {
			return nil, fmt.Errorf("corpus job needs a query schema name")
		}
		if _, ok := s.reg.Schema(req.Query); !ok {
			return nil, fmt.Errorf("schema %q not registered", req.Query)
		}
		creq := corpusRequest{
			Query:       req.Query,
			K:           req.K,
			Candidates:  req.Candidates,
			BlockBudget: req.BlockBudget,
			Preset:      req.Preset,
			Threshold:   req.Threshold,
			Exhaustive:  req.Exhaustive,
			NoReuse:     req.NoReuse,
		}
		return func(ctx context.Context) (any, error) {
			return s.corpusTopK(ctx, creq)
		}, nil

	case KindMigrate:
		if s.readOnly.Load() {
			return nil, fmt.Errorf("migrate jobs mutate the registry; submit to the leader %s", s.cfg.PeerURL)
		}
		if req.A == "" {
			return nil, fmt.Errorf("migrate job needs the upgraded schema name in a")
		}
		if _, ok := s.reg.Schema(req.A); !ok {
			return nil, fmt.Errorf("schema %q not registered", req.A)
		}
		if !s.evolveStats.hasPending(req.A) {
			return nil, fmt.Errorf("no pending migration for schema %q (PUT /v1/schemas/%s first)", req.A, req.A)
		}
		name := req.A
		return func(ctx context.Context) (any, error) {
			return s.runMigrateJob(ctx, name)
		}, nil

	default:
		return nil, fmt.Errorf("unknown job kind %q (want match, vocabulary, cluster, corpus or migrate)", req.Kind)
	}
}

// --- registry-backed cache warm-start -------------------------------------

// serviceTool is the Provenance.Tool stamp on artifacts the service stores,
// which WarmStart recognizes as its own.
const serviceTool = "harmonyd"

// provenanceNotes encodes the cache key parameters an artifact was
// computed under, so warm-start can rebuild the exact key and detect
// schema content drift. The threshold is formatted at full precision:
// a rounded value would rebuild a different CacheKey after restart.
func provenanceNotes(key CacheKey) string {
	return fmt.Sprintf("preset=%s threshold=%s fpA=%s fpB=%s",
		key.Preset, strconv.FormatFloat(key.Threshold, 'g', -1, 64),
		key.FingerprintA, key.FingerprintB)
}

// parseProvenanceNotes inverts provenanceNotes; ok is false for notes
// written by humans or other tools. Besides the cache key fields, the
// notes may carry a "via=<hub>" marker on artifacts the corpus pipeline
// composed through a hub schema; hub records the path a reused mapping
// took and does not participate in the cache key.
func parseProvenanceNotes(notes string) (key CacheKey, hub string, ok bool) {
	for _, field := range strings.Fields(notes) {
		k, v, found := strings.Cut(field, "=")
		if !found {
			return CacheKey{}, "", false
		}
		switch k {
		case "preset":
			key.Preset = v
		case "threshold":
			t, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return CacheKey{}, "", false
			}
			key.Threshold = t
		case "fpA":
			key.FingerprintA = v
		case "fpB":
			key.FingerprintB = v
		case "via":
			hub = v
		default:
			return CacheKey{}, "", false
		}
	}
	return key, hub, key.Preset != "" && key.FingerprintA != "" && key.FingerprintB != ""
}

// WarmStart seeds the cache from match artifacts previously persisted in
// the registry by this service (Provenance.Tool == "harmonyd"), realizing
// the paper's reuse story: match results are knowledge artifacts other
// projects — and later daemon processes — benefit from. Artifacts whose
// recorded fingerprints no longer match the registered schema content are
// skipped (the schema changed since the match was computed). It returns
// the number of cache entries seeded.
func WarmStart(c *Cache, reg *registry.Registry) int {
	seeded := 0
	for _, ma := range reg.MatchesByTool(serviceTool) {
		key, hub, ok := parseProvenanceNotes(ma.Provenance.Notes)
		if !ok {
			continue
		}
		ea, okA := reg.Schema(ma.SchemaA)
		eb, okB := reg.Schema(ma.SchemaB)
		if !okA || !okB || ea.Fingerprint != key.FingerprintA || eb.Fingerprint != key.FingerprintB {
			continue
		}
		out := &MatchOutcome{ReusedVia: hub, Pairs: make([]MatchPair, 0, len(ma.Pairs))}
		for _, p := range ma.Pairs {
			out.Pairs = append(out.Pairs, MatchPair{PathA: p.PathA, PathB: p.PathB, Score: p.Score})
		}
		c.Put(key, out)
		seeded++
	}
	return seeded
}

// storeArtifact persists a computed outcome as a registry match artifact
// stamped with the service tool, making it warm-start fodder for the next
// process. Storing is best-effort: an artifact for the same key already in
// the registry (or a validation failure) leaves the registry unchanged.
func storeArtifact(reg *registry.Registry, a, b string, key CacheKey, out *MatchOutcome) {
	storeArtifactVia(reg, a, b, key, out, "")
}

// computeOutcome runs one pairwise match and shapes it into the cacheable
// outcome: the greedy one-to-one selection at the threshold, by path.
func computeOutcome(eng *core.Engine, a, b *schema.Schema, threshold float64) *MatchOutcome {
	start := time.Now()
	res := eng.Match(a, b)
	sel := core.SelectGreedyOneToOne(res.Matrix, threshold)
	out := &MatchOutcome{
		Pairs:              make([]MatchPair, 0, len(sel)),
		SuggestedThreshold: core.SuggestThreshold(res.Matrix),
	}
	for _, c := range sel {
		out.Pairs = append(out.Pairs, MatchPair{
			PathA: res.Src.View(c.Src).El.Path(),
			PathB: res.Dst.View(c.Dst).El.Path(),
			Score: c.Score,
		})
	}
	out.ComputeMillis = outcomeElapsed(time.Since(start))
	res.Release()
	return out
}
