package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"harmony/internal/corpus"
	"harmony/internal/obs"
	"harmony/internal/registry"
)

// CorpusStats aggregates corpus-query counters across the server's
// lifetime, served by GET /v1/stats.
type CorpusStats struct {
	// Queries counts corpus top-k queries (sync endpoint + jobs).
	Queries uint64 `json:"queries"`
	// EngineRuns, Reused and CacheHits sum the per-query pipeline stats:
	// how many candidate scorings hit the engine, were served through
	// composed mappings, or came out of the match cache.
	EngineRuns uint64 `json:"engineRuns"`
	Reused     uint64 `json:"reused"`
	CacheHits  uint64 `json:"cacheHits"`
}

// corpusCounters accumulates CorpusStats under a lock.
type corpusCounters struct {
	mu sync.Mutex
	st CorpusStats
}

func (c *corpusCounters) add(st corpus.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Queries++
	c.st.EngineRuns += uint64(st.EngineRuns)
	c.st.Reused += uint64(st.Reused)
	c.st.CacheHits += uint64(st.CacheHits)
}

func (c *corpusCounters) snapshot() CorpusStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// serverCorpusCache adapts the server's fingerprint-keyed match cache and
// registry persistence to the corpus pipeline's Cache port: corpus
// queries and pairwise /v1/match requests share one entry space, and
// every fresh corpus outcome becomes a stored artifact (with hub
// provenance when composed) that warm-starts the next process.
type serverCorpusCache struct{ s *Server }

func serviceKey(key corpus.CacheKey) CacheKey {
	return CacheKey{
		FingerprintA: key.FingerprintA,
		FingerprintB: key.FingerprintB,
		Preset:       key.Preset,
		Threshold:    key.Threshold,
	}
}

func (cc serverCorpusCache) Lookup(key corpus.CacheKey) ([]corpus.Pair, string, bool) {
	out, ok := cc.s.cache.Get(serviceKey(key))
	if !ok {
		return nil, "", false
	}
	pairs := make([]corpus.Pair, 0, len(out.Pairs))
	for _, p := range out.Pairs {
		pairs = append(pairs, corpus.Pair{PathA: p.PathA, PathB: p.PathB, Score: p.Score})
	}
	return pairs, out.ReusedVia, true
}

func (cc serverCorpusCache) Store(key corpus.CacheKey, queryName string, m *corpus.SchemaMatch) {
	out := &MatchOutcome{ReusedVia: m.Hub, Pairs: make([]MatchPair, 0, len(m.Pairs))}
	for _, p := range m.Pairs {
		out.Pairs = append(out.Pairs, MatchPair{PathA: p.PathA, PathB: p.PathB, Score: p.Score})
	}
	sk := serviceKey(key)
	cc.s.cache.Put(sk, out)
	// Followers only populate the in-memory cache: persisting would
	// journal a local record and fork the LSN sequence off the leader's.
	if cc.s.readOnly.Load() {
		return
	}
	// Persisting is best-effort: an unregistered query schema (corpus
	// queries may be ad hoc) fails artifact validation and is skipped.
	storeArtifactVia(cc.s.reg, queryName, m.Schema, sk, out, m.Hub)
}

// --- request handling -----------------------------------------------------

// corpusRequest is the wire form of POST /v1/corpus/match; the GET
// /v1/corpus/topk endpoint maps its query parameters onto the same shape.
type corpusRequest struct {
	// Query names the registered schema used as the query term.
	Query string `json:"query"`
	// K overrides the server's default top-k (flag -corpus-topk).
	K int `json:"k,omitempty"`
	// Candidates overrides the blocking budget (flag -corpus-candidates).
	Candidates int `json:"candidates,omitempty"`
	// BlockBudget overrides the blocking index's document-scoring budget
	// (flag -corpus-block-budget; 0 = server default, exact when that is
	// also zero).
	BlockBudget int `json:"blockBudget,omitempty"`
	// Preset and Threshold override the match defaults when non-zero.
	Preset    string  `json:"preset,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Exhaustive disables blocking (ground-truth mode); NoReuse disables
	// composed-mapping reuse.
	Exhaustive bool `json:"exhaustive,omitempty"`
	NoReuse    bool `json:"noReuse,omitempty"`
	// Shard/Shards restrict scoring to one partition of the corpus —
	// the per-replica leg of a scatter-gather query (zero: unsharded).
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	// Local forces local execution even on a node with a router: set by
	// the router on its fan-out legs so they cannot recurse.
	Local bool `json:"local,omitempty"`
}

// corpusTopK validates a corpus request against the registry and runs the
// pipeline.
func (s *Server) corpusTopK(ctx context.Context, req corpusRequest) (*corpus.Result, error) {
	if req.Query == "" {
		return nil, fmt.Errorf("corpus query needs a schema name")
	}
	preset, threshold, err := s.matchParams(req.Preset, req.Threshold)
	if err != nil {
		return nil, err
	}
	e, ok := s.reg.Schema(req.Query)
	if !ok {
		return nil, fmt.Errorf("schema %q not registered", req.Query)
	}
	if req.K < 0 || req.Candidates < 0 || req.BlockBudget < 0 {
		return nil, fmt.Errorf("k, candidates and blockBudget must be positive")
	}
	if req.Shards < 0 || req.Shard < 0 || (req.Shards > 0 && req.Shard >= req.Shards) {
		return nil, fmt.Errorf("shard %d out of range for %d shards", req.Shard, req.Shards)
	}
	cfg := corpus.Config{
		Candidates:  req.Candidates,
		TopK:        req.K,
		BlockBudget: req.BlockBudget,
		Threshold:   threshold,
		Shard:       req.Shard,
		Shards:      req.Shards,
		Workers:     s.cfg.CorpusWorkers,
		// The corpus pipeline keys its external cache entries by this
		// string only; decorating it with the sparse budget keeps corpus
		// and pairwise outcomes sharing one entry space per scoring
		// configuration.
		Preset:       s.cachePreset(preset),
		Exhaustive:   req.Exhaustive,
		NoReuse:      req.NoReuse,
		SparseBudget: s.cfg.SparseBudget,
	}
	if cfg.Candidates == 0 {
		cfg.Candidates = s.cfg.CorpusCandidates
	}
	if cfg.TopK == 0 {
		cfg.TopK = s.cfg.CorpusTopK
	}
	if cfg.BlockBudget == 0 {
		cfg.BlockBudget = s.cfg.CorpusBlockBudget
	}
	// A node with a router scatters the query across the replica set
	// (each leg comes back here on its replica with Local set and a
	// shard assignment); shard-local and explicitly local requests score
	// on this node.
	if s.router != nil && req.Shards == 0 && !req.Local {
		return s.routeTopK(ctx, req, preset, threshold, cfg)
	}
	var sp *obs.Span
	if parent, ok := obs.SpanFromContext(ctx); ok {
		sp = parent.StartChild("corpus.topk")
		sp.SetAttr("query", req.Query)
		sp.SetAttr("shard", req.Shard)
		defer sp.End()
	}
	res, err := s.corpusPipe.TopK(ctx, s.engines[preset], e.Schema, cfg)
	if err != nil {
		return nil, err
	}
	s.corpusStats.add(res.Stats)
	if s.corpusBlockSec != nil {
		shard := strconv.Itoa(req.Shard)
		s.corpusBlockSec.WithLabelValues(shard).Observe(float64(res.Stats.BlockMillis) / 1000)
		s.corpusScoreSec.WithLabelValues(shard).Observe(float64(res.Stats.ScoreMillis) / 1000)
		s.corpusCands.WithLabelValues(shard).Observe(float64(res.Stats.Candidates))
	}
	if sp != nil {
		sp.SetAttr("candidates", res.Stats.Candidates)
		sp.SetAttr("engineRuns", res.Stats.EngineRuns)
	}
	return res, nil
}

// routeTopK fans one corpus query out through the scatter-gather
// router, with the server-resolved parameters pinned onto every leg so
// all replicas score under identical configuration.
func (s *Server) routeTopK(ctx context.Context, req corpusRequest, preset string, threshold float64, cfg corpus.Config) (*corpus.Result, error) {
	params := url.Values{
		"schema":     {req.Query},
		"preset":     {preset},
		"threshold":  {strconv.FormatFloat(threshold, 'g', -1, 64)},
		"candidates": {strconv.Itoa(cfg.Candidates)},
	}
	if cfg.BlockBudget > 0 {
		params.Set("blockbudget", strconv.Itoa(cfg.BlockBudget))
	}
	if req.Exhaustive {
		params.Set("exhaustive", "1")
	}
	if req.NoReuse {
		params.Set("noreuse", "1")
	}
	res, err := s.router.TopK(ctx, cfg.TopK, params)
	if err != nil {
		return nil, fmt.Errorf("scatter-gather: %w", err)
	}
	return res, nil
}

// handleCorpusMatch is POST /v1/corpus/match: one query schema against
// the whole registry, synchronously. Large registries or exhaustive mode
// belong on POST /v1/jobs with kind "corpus".
func (s *Server) handleCorpusMatch(w http.ResponseWriter, r *http.Request) {
	var req corpusRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	res, err := s.corpusTopK(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleCorpusTopK is GET /v1/corpus/topk?schema=NAME[&k=5][&candidates=32]
// [&preset=...][&threshold=...][&exhaustive=1][&noreuse=1] — the
// convenience form of the corpus query.
func (s *Server) handleCorpusTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := corpusRequest{
		Query:  q.Get("schema"),
		Preset: q.Get("preset"),
	}
	for _, p := range []struct {
		name string
		dst  *bool
	}{{"exhaustive", &req.Exhaustive}, {"noreuse", &req.NoReuse}, {"local", &req.Local}} {
		if v := q.Get(p.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, "invalid %s %q", p.name, v)
				return
			}
			*p.dst = b
		}
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"k", &req.K}, {"candidates", &req.Candidates}, {"blockbudget", &req.BlockBudget}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				writeError(w, http.StatusBadRequest, "invalid %s %q", p.name, v)
				return
			}
			*p.dst = n
		}
	}
	// shard is zero-based (shard=0 of shards=3 is valid), unlike k and
	// candidates above.
	for _, p := range []struct {
		name string
		dst  *int
	}{{"shard", &req.Shard}, {"shards", &req.Shards}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "invalid %s %q", p.name, v)
				return
			}
			*p.dst = n
		}
	}
	if v := q.Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid threshold %q", v)
			return
		}
		req.Threshold = f
	}
	res, err := s.corpusTopK(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// statusFor maps corpus errors onto HTTP statuses: unknown schemata are
// 404, everything else is a bad request.
func statusFor(err error) int {
	if strings.Contains(err.Error(), "not registered") {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// storeArtifactVia persists a corpus outcome like storeArtifact, with the
// composing hub recorded in the provenance notes ("via=<hub>") so the
// reuse path of a mapping survives restarts and audits.
func storeArtifactVia(reg *registry.Registry, a, b string, key CacheKey, out *MatchOutcome, hub string) {
	notes := provenanceNotes(key)
	if hub != "" {
		notes += " via=" + hub
	}
	// Deduplicate by cache key, not by exact notes: a composed and an
	// engine artifact for the same key would otherwise coexist and race
	// for the warm-start slot after a restart.
	for _, ma := range reg.MatchesBetween(a, b) {
		if ma.Provenance.Tool != serviceTool {
			continue
		}
		if existing, _, ok := parseProvenanceNotes(ma.Provenance.Notes); ok && existing == key {
			return
		}
	}
	ma := registry.MatchArtifact{
		SchemaA: a,
		SchemaB: b,
		Context: registry.ContextSearch,
		Provenance: registry.Provenance{
			CreatedBy: serviceTool,
			Tool:      serviceTool,
			Notes:     notes,
		},
	}
	for _, p := range out.Pairs {
		score := p.Score
		if score >= 1 {
			score = 0.9999
		}
		ma.Pairs = append(ma.Pairs, registry.AssertedMatch{
			PathA: p.PathA, PathB: p.PathB, Score: score,
			Status: registry.StatusProposed,
		})
	}
	_, _ = reg.AddMatch(ma)
}
