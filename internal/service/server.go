package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/core"
	"harmony/internal/corpus"
	"harmony/internal/obs"
	"harmony/internal/registry"
	"harmony/internal/repl"
	"harmony/internal/schema"
	"harmony/internal/search"
	"harmony/internal/store"
)

// maxBodyBytes bounds request bodies; enterprise schemata serialize to a
// few MB at most.
const maxBodyBytes = 16 << 20

// Server is the match-as-a-service front-end: a metadata registry with an
// HTTP surface, a fingerprint-keyed match cache, and an async job engine.
// Construct with New; it is ready to serve once Handler is mounted.
type Server struct {
	cfg     Config
	reg     *registry.Registry
	cache   *Cache
	queue   *Queue
	engines map[string]*core.Engine
	// profiles is the compiled-profile cache shared by every preset
	// engine. It is invalidated in the same sweep as the match cache on
	// schema evolution and lives in memory only: a restart recompiles the
	// newest schemata it can hold (warmProfiles).
	profiles *core.ProfileCache
	start    time.Time
	logf     func(format string, args ...any)

	corpusPipe  *corpus.Pipeline
	corpusStats corpusCounters
	evolveStats evolveCounters
	ingestStats ingestCounters
	// upgradeMu serializes schema version bumps: concurrent PUTs of the
	// same schema would otherwise race diff-vs-bump (the registry's
	// AddVersionIf turns that race into an error; the mutex turns it into
	// first-come-first-served instead of a client-visible conflict).
	upgradeMu sync.Mutex

	// st is the durable storage engine (nil for in-memory servers). With
	// a store, mutations are durable per-op and snapshotLoop compacts the
	// log in the background.
	st *store.Store

	// readOnly marks follower mode: mutating endpoints 403 and point at
	// the leader, and no local journaled writes happen outside the
	// replication stream (artifact persistence included — a single local
	// commit would fork the follower's LSN sequence from the leader's).
	// Promotion flips it off.
	readOnly atomic.Bool
	// replMu guards follower teardown during promotion.
	replMu   sync.Mutex
	source   *repl.Source
	follower *repl.Follower
	router   *repl.Router

	// obs is the server-scoped metrics registry (/metrics also renders
	// the process-wide obs.Default()); recorder keeps the recent-trace
	// ring behind /v1/traces. The pre-bound vec cells below are the
	// hot-path instruments.
	obs            *obs.Registry
	recorder       *obs.Recorder
	redirects      atomic.Uint64
	httpDur        *obs.HistogramVec
	httpTotal      *obs.CounterVec
	jobWait        *obs.HistogramVec
	jobRun         *obs.HistogramVec
	corpusBlockSec *obs.HistogramVec
	corpusScoreSec *obs.HistogramVec
	corpusCands    *obs.HistogramVec

	ingestBatchSchemas *obs.Histogram
	ingestStageSec     *obs.HistogramVec
	ingestStreamSec    *obs.Histogram

	snapStop  chan struct{}
	snapDone  chan struct{}
	closeOnce sync.Once
}

// New builds a server from the config.
//
// With cfg.StoreDir set, the durable storage engine owns persistence:
// the registry is recovered from snapshot + WAL replay, every
// mutation commits to the WAL per-op under cfg.Fsync, and a background
// loop snapshots + truncates the log once it outgrows cfg.SnapshotEvery.
// Without a store the registry lives in memory only.
//
// The match cache is warm-started from the recovered artifacts and the
// profile cache from the newest schemata. logf receives operational
// messages (nil for silence).
func New(cfg Config, logf func(format string, args ...any)) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	reg := registry.New()
	var st *store.Store
	if cfg.StoreDir != "" {
		st, err = store.Open(store.Options{
			Dir:           cfg.StoreDir,
			Fsync:         store.FsyncPolicy(cfg.Fsync),
			SnapshotEvery: cfg.SnapshotEvery,
			Logf:          logf,
		})
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		reg = st.Registry()
		logf("service: store %s recovered %d schemata, %d artifacts (fsync=%s)",
			cfg.StoreDir, reg.Len(), reg.MatchCount(), cfg.Fsync)
	}
	profiles := core.NewProfileCache(cfg.ProfileCache)
	engines := make(map[string]*core.Engine, len(core.Presets()))
	for name, mk := range core.Presets() {
		eng := mk()
		if cfg.SparseBudget > 0 {
			eng = eng.WithOptions(core.WithSparse(cfg.SparseBudget))
		}
		engines[name] = eng.WithOptions(core.WithProfileCache(profiles))
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		cache:    NewCache(cfg.CacheSize),
		queue:    NewQueue(cfg.Workers, cfg.Backlog),
		engines:  engines,
		profiles: profiles,
		start:    time.Now(),
		logf:     logf,
		st:       st,
	}
	// The trace recorder exists before initRepl so the follower's apply
	// loop can record replication batches from its first poll.
	s.recorder = obs.NewRecorder(traceRing)
	s.corpusPipe = corpus.NewPipeline(reg, serverCorpusCache{s})
	if s.st != nil {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	// A fresh follower bootstraps from the leader inside initRepl, so the
	// caches below warm from the leader's state.
	if err := s.initRepl(); err != nil {
		s.Close()
		return nil, err
	}
	if n := WarmStart(s.cache, reg); n > 0 {
		logf("service: warm-started match cache with %d stored results", n)
	}
	if n := warmProfiles(profiles, reg); n > 0 {
		logf("service: warmed the profile cache with the %d newest schemata", n)
	}
	s.initObs()
	return s, nil
}

// Registry exposes the backing repository (for tests and embedding).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Profiles exposes the compiled-profile cache shared by the preset
// engines, for tests and embedding.
func (s *Server) Profiles() *core.ProfileCache { return s.profiles }

// Cache exposes the match cache (for tests and embedding).
func (s *Server) Cache() *Cache { return s.cache }

// Queue exposes the job engine (for tests and embedding).
func (s *Server) Queue() *Queue { return s.queue }

// snapshotLoop is the store's background compaction: durability is
// already per-op through the WAL, so all this loop does is snapshot +
// truncate the log whenever the replay debt passes cfg.SnapshotEvery
// records — bounding both crash-recovery time and disk growth.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !s.st.ShouldSnapshot() {
				continue
			}
			if err := s.st.Snapshot(); err != nil {
				s.logf("service: background snapshot: %v", err)
			}
		case <-s.snapStop:
			return
		}
	}
}

// Close shuts the server down: the job queue stops (cancelling queued and
// running jobs) and, with a store, a final snapshot compacts the log for
// a fast next start and the WAL is synced shut.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.replMu.Lock()
		if s.follower != nil {
			s.follower.Stop()
			s.follower = nil
		}
		s.replMu.Unlock()
		s.queue.Close()
		if s.st == nil {
			return
		}
		close(s.snapStop)
		<-s.snapDone
		if err = s.st.Snapshot(); err != nil {
			s.logf("service: final snapshot: %v", err)
		}
		if cerr := s.st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

// Store exposes the durable storage engine (nil for in-memory servers),
// for tests and embedding.
func (s *Server) Store() *store.Store { return s.st }

// Handler returns the HTTP API. On follower nodes the mutating schema
// endpoints answer 403 with the leader's URL; read endpoints (gets,
// search, corpus top-k, cached and computed matches) serve locally from
// the replicated state.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("POST /v1/schemas", s.writable(s.handleAddSchema))
	mux.HandleFunc("GET /v1/schemas", s.handleListSchemas)
	mux.HandleFunc("GET /v1/schemas/{name}", s.handleGetSchema)
	mux.HandleFunc("PUT /v1/schemas/{name}", s.writable(s.handlePutSchema))
	mux.HandleFunc("DELETE /v1/schemas/{name}", s.writable(s.handleDeleteSchema))
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	mux.HandleFunc("POST /v1/corpus/match", s.handleCorpusMatch)
	mux.HandleFunc("GET /v1/corpus/topk", s.handleCorpusTopK)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/search", s.handleSearch)
	if s.source != nil {
		mux.HandleFunc("GET "+repl.PathSnapshot, s.source.HandleSnapshot)
		mux.HandleFunc("GET "+repl.PathWAL, s.source.HandleWAL)
		mux.HandleFunc("GET "+repl.PathStatus, s.source.HandleStatus)
	}
	mux.HandleFunc("POST /repl/v1/promote", s.handlePromote)
	// The bulk ingest stream mounts outside the body-size ceiling: its
	// request body is an unbounded NDJSON stream consumed incrementally,
	// with each line individually bounded by the scanner.
	outer := http.NewServeMux()
	outer.Handle("POST /v1/schemas/bulk", s.instrument(http.HandlerFunc(s.writable(s.handleBulkIngest))))
	outer.Handle("/", http.MaxBytesHandler(s.instrument(mux), maxBodyBytes))
	return outer
}

// --- shared helpers -------------------------------------------------------

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// matchParams resolves per-request preset/threshold overrides against the
// server defaults. A zero threshold means "server default" — matching at
// literally 0 would select every pair and is never what a caller wants.
func (s *Server) matchParams(preset string, threshold float64) (string, float64, error) {
	if preset == "" {
		preset = s.cfg.Preset
	}
	if _, ok := s.engines[preset]; !ok {
		return "", 0, fmt.Errorf("unknown preset %q", preset)
	}
	if threshold == 0 {
		threshold = s.cfg.Threshold
	}
	if threshold < 0 || threshold > 1 {
		return "", 0, fmt.Errorf("threshold %v out of [0,1]", threshold)
	}
	return preset, threshold, nil
}

func (s *Server) lookupPair(a, b string) (*registry.Entry, *registry.Entry, error) {
	ea, ok := s.reg.Schema(a)
	if !ok {
		return nil, nil, fmt.Errorf("schema %q not registered", a)
	}
	eb, ok := s.reg.Schema(b)
	if !ok {
		return nil, nil, fmt.Errorf("schema %q not registered", b)
	}
	return ea, eb, nil
}

func (s *Server) lookupSchemas(names []string) ([]*schema.Schema, error) {
	out := make([]*schema.Schema, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("schema %q listed twice", name)
		}
		seen[name] = true
		e, ok := s.reg.Schema(name)
		if !ok {
			return nil, fmt.Errorf("schema %q not registered", name)
		}
		out = append(out, e.Schema)
	}
	return out, nil
}

// cachePreset derives the cache-keying identity of a preset: when sparse
// scoring is enabled the budget is baked into the string, so results
// computed under a different scoring configuration (an earlier dense
// daemon's persisted artifacts, say) occupy different cache entries
// instead of silently answering for each other.
func (s *Server) cachePreset(preset string) string {
	if s.cfg.SparseBudget > 0 {
		return fmt.Sprintf("%s+sparse%d", preset, s.cfg.SparseBudget)
	}
	return preset
}

// matchCached serves one pairwise match through the fingerprint-keyed
// cache. On a fresh computation the outcome is also persisted to the
// registry as a match artifact, feeding the next process's warm-start.
func (s *Server) matchCached(ctx context.Context, ea, eb *registry.Entry, preset string, threshold float64) (*MatchOutcome, bool, error) {
	key := CacheKey{
		FingerprintA: ea.Fingerprint,
		FingerprintB: eb.Fingerprint,
		Preset:       s.cachePreset(preset),
		Threshold:    threshold,
	}
	out, cached, err := s.cache.GetOrCompute(key, func() (*MatchOutcome, error) {
		var compute *obs.Span
		if sp, ok := obs.SpanFromContext(ctx); ok {
			compute = sp.StartChild("match.compute")
			compute.SetAttr("a", ea.Schema.Name)
			compute.SetAttr("b", eb.Schema.Name)
			defer compute.End()
		}
		return computeOutcome(s.engines[preset], ea.Schema, eb.Schema, threshold), nil
	})
	// Followers compute and cache freely but never persist: an artifact
	// write would journal a local record and fork this node's LSN
	// sequence from the leader's replicated stream.
	if err == nil && !cached && !s.readOnly.Load() {
		storeArtifact(s.reg, ea.Schema.Name, eb.Schema.Name, key, out)
	}
	return out, cached, err
}

// --- handlers -------------------------------------------------------------

// healthResponse is the wire form of GET /healthz. Status is "ok" or
// "degraded"; degraded carries the last persistence failure so an
// operator (or probe) sees *why* instead of digging through logs.
type healthResponse struct {
	Status        string  `json:"status"`
	Error         string  `json:"error,omitempty"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// persistenceError returns the store's most recent WAL append or
// snapshot failure (nil when persistence is healthy or in memory).
func (s *Server) persistenceError() error {
	if s.st == nil {
		return nil
	}
	return s.st.LastError()
}

// handleHealth reports degraded — with the error — when the last
// persistence attempt (WAL append or snapshot) failed, or when a
// follower's replication stream is down or lagging past
// cfg.LagThreshold. The process still serves from memory, so this
// stays HTTP 200: restarting the pod would not fix a full disk, but an
// alert on the status can page someone who can.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	version, goVersion := buildVersion()
	resp := healthResponse{
		Status:        "ok",
		Version:       version,
		GoVersion:     goVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if err := s.persistenceError(); err != nil {
		resp.Status = "degraded"
		resp.Error = err.Error()
	}
	if err := s.replicationError(); err != nil {
		resp.Status = "degraded"
		if resp.Error != "" {
			resp.Error += "; "
		}
		resp.Error += err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Schemas:       s.reg.Len(),
		Artifacts:     s.reg.MatchCount(),
		Cache:         s.cache.Stats(),
		Queue:         s.queue.Stats(),
		Corpus:        s.corpusStats.snapshot(),
		Evolve:        s.evolveStats.snapshot(),
		Ingest:        s.ingestStats.snapshot(),
		Index:         s.reg.IndexStats(),
		Profiles:      s.profiles.Stats(),
	}
	if s.st != nil {
		ss := s.st.Stats()
		st.Store = &ss
	}
	st.Repl = s.replStats()
	writeJSON(w, http.StatusOK, st)
}

// schemaSummary is the catalog row returned by the schema endpoints.
type schemaSummary struct {
	Name        string    `json:"name"`
	Format      string    `json:"format"`
	Elements    int       `json:"elements"`
	Roots       int       `json:"roots"`
	MaxDepth    int       `json:"maxDepth"`
	Fingerprint string    `json:"fingerprint"`
	Steward     string    `json:"steward,omitempty"`
	Tags        []string  `json:"tags,omitempty"`
	Registered  time.Time `json:"registered"`
}

func summarizeEntry(e *registry.Entry) schemaSummary {
	return schemaSummary{
		Name:        e.Schema.Name,
		Format:      e.Schema.Format.String(),
		Elements:    e.Stats.Elements,
		Roots:       e.Stats.Roots,
		MaxDepth:    e.Stats.MaxDepth,
		Fingerprint: e.Fingerprint,
		Steward:     e.Steward,
		Tags:        e.Tags,
		Registered:  e.Registered,
	}
}

// handleAddSchema registers a schema posted in the JSON interchange format
// (the same format schema.MarshalJSON emits). Optional query parameters:
// steward, tags (comma-separated).
func (s *Server) handleAddSchema(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	sc, err := schema.ParseJSON(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var tags []string
	if t := r.URL.Query().Get("tags"); t != "" {
		tags = strings.Split(t, ",")
	}
	if err := s.reg.AddSchema(sc, r.URL.Query().Get("steward"), tags...); err != nil {
		// A journaling failure is a persistence outage, not a name
		// conflict — 500 tells the client the write may not survive a
		// crash (a retry would hit the duplicate check: the schema IS
		// registered in memory).
		code := http.StatusConflict
		if errors.Is(err, registry.ErrNotJournaled) {
			code = http.StatusInternalServerError
		}
		writeError(w, code, "%v", err)
		return
	}
	e, _ := s.reg.Schema(sc.Name)
	writeJSON(w, http.StatusCreated, summarizeEntry(e))
}

func (s *Server) handleListSchemas(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Schemas()
	out := make([]schemaSummary, 0, len(entries))
	for _, e := range entries {
		out = append(out, summarizeEntry(e))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSchema(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Schema(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "schema %q not registered", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, e.Schema)
}

func (s *Server) handleDeleteSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Serialized with PUT upgrades: a delete landing between an upgrade's
	// pre-flight validation and its commit batch would vanish a
	// counterpart schema's artifacts mid-migration, committing a version
	// bump the client is then told failed.
	s.upgradeMu.Lock()
	defer s.upgradeMu.Unlock()
	if _, ok := s.reg.Schema(name); !ok {
		writeError(w, http.StatusNotFound, "schema %q not registered", name)
		return
	}
	removed, err := s.reg.RemoveSchema(name)
	if err != nil {
		// The schema is gone from memory but the delete never reached the
		// WAL — it would resurrect on crash recovery. Tell the client.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name, "removedArtifacts": removed})
}

// matchRequest is the wire form of POST /v1/match.
type matchRequest struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	Preset    string  `json:"preset,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// matchResponse is the wire form of the sync match result.
type matchResponse struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	Preset    string  `json:"preset"`
	Threshold float64 `json:"threshold"`
	// Cached reports whether the outcome was served from the cache (or an
	// in-flight computation) rather than computed for this request.
	Cached bool `json:"cached"`
	*MatchOutcome
}

// handleMatch is the synchronous match endpoint: cache hit or compute on
// the request path. Heavy or speculative matches belong on POST /v1/jobs.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req matchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	preset, threshold, err := s.matchParams(req.Preset, req.Threshold)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ea, eb, err := s.lookupPair(req.A, req.B)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	out, cached, err := s.matchCached(r.Context(), ea, eb, preset, threshold)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, matchResponse{
		A: req.A, B: req.B, Preset: preset, Threshold: threshold,
		Cached: cached, MatchOutcome: out,
	})
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	fn, err := s.buildJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The job runs on a worker under its own trace, carrying the
	// submitting request's trace ID across the async boundary so one ID
	// follows the work from POST to completion.
	traceID := ""
	if sp, ok := obs.SpanFromContext(r.Context()); ok {
		traceID = sp.TraceID()
	}
	kind := req.Kind
	inner := fn
	fn = func(ctx context.Context) (any, error) {
		tr, sp := obs.StartTrace(traceID, "job "+kind)
		res, err := inner(obs.ContextWithSpan(ctx, sp))
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		s.recorder.Record(tr)
		return res, err
	}
	id, err := s.queue.Submit(req.Kind, fn)
	if err != nil {
		// Load shedding: the backlog bound rejected the job. Retry-After
		// estimates the drain time from the queue's recent run rate, so
		// clients back off proportionally instead of hammering.
		w.Header().Set("Retry-After", strconv.Itoa(s.queue.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	job, _ := s.queue.Get(id)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.List())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.queue.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	job, _ := s.queue.Get(id)
	writeJSON(w, http.StatusOK, job)
}

// handleSearch ranks registered schemata against a free-text query.
// mode=schemas (default) ranks whole schemata; mode=fragments ranks
// top-level sub-trees.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid k %q", ks)
			return
		}
		k = n
	}
	var hits []search.Result
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "schemas":
		hits = s.reg.SearchText(q, k)
	case "fragments":
		hits = s.reg.SearchFragments(q, k)
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want schemas or fragments)", mode)
		return
	}
	out := make([]searchHit, 0, len(hits))
	for _, h := range hits {
		out = append(out, searchHit{Schema: h.Schema, Fragment: h.Fragment, Score: h.Score})
	}
	writeJSON(w, http.StatusOK, out)
}

// searchHit is the wire form of one search result.
type searchHit struct {
	Schema   string  `json:"schema"`
	Fragment string  `json:"fragment,omitempty"`
	Score    float64 `json:"score"`
}
