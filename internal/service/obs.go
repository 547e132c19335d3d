package service

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"harmony/internal/obs"
)

// This file wires internal/obs into the server: the per-server metrics
// registry (the process-wide obs.Default() carries engine/store families
// registered by those packages), the HTTP instrumentation middleware
// with trace propagation, and the /metrics and /v1/traces endpoints.

// initObs builds the server's registry and recorder and registers every
// metric family. Called from New after initRepl, so the replication
// components it samples exist.
func (s *Server) initObs() {
	s.obs = obs.NewRegistry()

	s.httpDur = s.obs.HistogramVec("harmony_http_request_seconds",
		"HTTP request latency by route.", obs.DefBuckets, "route")
	s.httpTotal = s.obs.CounterVec("harmony_http_requests_total",
		"HTTP requests by route and status code.", "route", "code")
	s.jobWait = s.obs.HistogramVec("harmony_jobs_wait_seconds",
		"Time jobs spent queued, by kind.", obs.DefBuckets, "kind")
	s.jobRun = s.obs.HistogramVec("harmony_jobs_run_seconds",
		"Time jobs spent executing, by kind.", obs.DefBuckets, "kind")
	s.corpusBlockSec = s.obs.HistogramVec("harmony_corpus_block_seconds",
		"Corpus blocking (candidate generation) time per query, by shard.", obs.DefBuckets, "shard")
	s.corpusScoreSec = s.obs.HistogramVec("harmony_corpus_score_seconds",
		"Corpus top-k scoring time per query, by shard.", obs.DefBuckets, "shard")
	s.corpusCands = s.obs.HistogramVec("harmony_corpus_blocked_candidates",
		"Candidates surviving corpus blocking per query, by shard.", obs.CountBuckets, "shard")

	s.queue.SetObserver(func(kind string, state JobState, wait, run time.Duration) {
		s.jobWait.WithLabelValues(kind).Observe(wait.Seconds())
		s.jobRun.WithLabelValues(kind).Observe(run.Seconds())
	})

	r := s.obs
	r.GaugeFunc("harmony_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("harmony_schemas", "Registered schemata.",
		func() float64 { return float64(s.reg.Len()) })
	r.GaugeFunc("harmony_match_artifacts", "Persisted match artifacts.",
		func() float64 { return float64(s.reg.MatchCount()) })

	// Cache, queue and corpus counters read the existing stats structs at
	// scrape time instead of keeping parallel push counters.
	cache := func(pick func(CacheStats) float64) func() float64 {
		return func() float64 { return pick(s.cache.Stats()) }
	}
	r.CounterFunc("harmony_cache_hits_total", "Match cache hits.",
		cache(func(c CacheStats) float64 { return float64(c.Hits) }))
	r.CounterFunc("harmony_cache_misses_total", "Match cache misses.",
		cache(func(c CacheStats) float64 { return float64(c.Misses) }))
	r.CounterFunc("harmony_cache_coalesced_total", "Lookups coalesced onto an in-flight computation.",
		cache(func(c CacheStats) float64 { return float64(c.Coalesced) }))
	r.CounterFunc("harmony_cache_computes_total", "Fresh computations inserted into the cache.",
		cache(func(c CacheStats) float64 { return float64(c.Computes) }))
	r.CounterFunc("harmony_cache_evictions_total", "Entries displaced by the LRU bound.",
		cache(func(c CacheStats) float64 { return float64(c.Evictions) }))
	r.CounterFunc("harmony_cache_invalidated_total", "Entries evicted by fingerprint invalidation.",
		cache(func(c CacheStats) float64 { return float64(c.Invalidated) }))
	r.GaugeFunc("harmony_cache_size", "Resident cache entries.",
		cache(func(c CacheStats) float64 { return float64(c.Size) }))
	r.GaugeFunc("harmony_cache_capacity", "Cache capacity in entries.",
		cache(func(c CacheStats) float64 { return float64(c.Capacity) }))

	queue := func(pick func(QueueStats) float64) func() float64 {
		return func() float64 { return pick(s.queue.Stats()) }
	}
	r.CounterFunc("harmony_jobs_submitted_total", "Jobs accepted by the queue.",
		queue(func(q QueueStats) float64 { return float64(q.Submitted) }))
	r.CounterFunc("harmony_jobs_completed_total", "Jobs finished successfully.",
		queue(func(q QueueStats) float64 { return float64(q.Completed) }))
	r.CounterFunc("harmony_jobs_failed_total", "Jobs that returned an error.",
		queue(func(q QueueStats) float64 { return float64(q.Failed) }))
	r.CounterFunc("harmony_jobs_cancelled_total", "Jobs cancelled before or during execution.",
		queue(func(q QueueStats) float64 { return float64(q.Cancelled) }))
	r.CounterFunc("harmony_jobs_rejected_total", "Submissions rejected by the backlog bound.",
		queue(func(q QueueStats) float64 { return float64(q.Rejected) }))
	r.GaugeFunc("harmony_queue_depth", "Jobs waiting in the backlog.",
		queue(func(q QueueStats) float64 { return float64(q.Queued) }))
	r.GaugeFunc("harmony_jobs_running", "Jobs currently executing.",
		queue(func(q QueueStats) float64 { return float64(q.Running) }))
	r.GaugeFunc("harmony_queue_workers", "Worker-pool size.",
		queue(func(q QueueStats) float64 { return float64(q.Workers) }))

	corp := func(pick func(CorpusStats) float64) func() float64 {
		return func() float64 { return pick(s.corpusStats.snapshot()) }
	}
	r.CounterFunc("harmony_corpus_queries_total", "Corpus top-k queries served locally.",
		corp(func(c CorpusStats) float64 { return float64(c.Queries) }))
	r.CounterFunc("harmony_corpus_engine_runs_total", "Candidate scorings that hit the engine.",
		corp(func(c CorpusStats) float64 { return float64(c.EngineRuns) }))
	r.CounterFunc("harmony_corpus_reused_total", "Candidates served through composed mappings.",
		corp(func(c CorpusStats) float64 { return float64(c.Reused) }))
	r.CounterFunc("harmony_corpus_cache_hits_total", "Candidates served from the match cache.",
		corp(func(c CorpusStats) float64 { return float64(c.CacheHits) }))

	if s.st != nil {
		r.GaugeFunc("harmony_store_last_lsn", "Newest WAL record's LSN.",
			func() float64 { return float64(s.st.LastLSN()) })
		r.GaugeFunc("harmony_store_durable_lsn", "Highest LSN known to be on stable storage.",
			func() float64 { return float64(s.st.Stats().DurableLSN) })
		r.GaugeFunc("harmony_store_snapshot_lsn", "LSN the newest snapshot covers.",
			func() float64 { return float64(s.st.Stats().SnapshotLSN) })
		r.GaugeFunc("harmony_store_records_since_snapshot", "Replay debt a crash would pay now.",
			func() float64 { return float64(s.st.RecordsSinceSnapshot()) })
		r.CounterFunc("harmony_store_commits_total", "Committed mutation batches.",
			func() float64 { return float64(s.st.Stats().Commits) })
		r.GaugeFunc("harmony_store_segments", "Live WAL segments.",
			func() float64 { return float64(s.st.Stats().Segments) })
	}

	s.registerIngestMetrics(r)
	s.registerReplMetrics(r)
}

// registerReplMetrics adds the replication families. Samplers re-read the
// components under replMu at scrape time, so promotion (which tears the
// follower down) cannot race a scrape.
func (s *Server) registerReplMetrics(r *obs.Registry) {
	if s.cfg.Role == "" && s.source == nil && s.router == nil {
		return
	}
	r.CounterFunc("harmony_repl_redirects_total",
		"Mutations refused as a read-only follower (403 + Location).",
		func() float64 { return float64(s.redirects.Load()) })
	if s.source != nil {
		// Leader-side lag per follower: the LSN delta between the log head
		// and each replica's pull cursor, and seconds since it last called.
		r.GaugeVecFunc("harmony_repl_lag_records", "Leader-side follower lag in WAL records.",
			[]string{"replica"}, func() []obs.Sample {
				head := s.st.LastLSN()
				var out []obs.Sample
				for _, c := range s.source.Cursors() {
					lag := float64(0)
					if head > c.LSN {
						lag = float64(head - c.LSN)
					}
					out = append(out, obs.Sample{Labels: []string{c.Replica}, Value: lag})
				}
				return out
			})
		r.GaugeVecFunc("harmony_repl_lag_seconds", "Seconds since each follower's last contact.",
			[]string{"replica"}, func() []obs.Sample {
				var out []obs.Sample
				for _, c := range s.source.Cursors() {
					out = append(out, obs.Sample{
						Labels: []string{c.Replica},
						Value:  time.Since(c.LastContact).Seconds(),
					})
				}
				return out
			})
		r.CounterFunc("harmony_repl_snapshots_shipped_total", "Bootstrap snapshots served to followers.",
			func() float64 { return float64(s.source.Stats().SnapshotsShipped) })
		r.CounterFunc("harmony_repl_records_shipped_total", "WAL records served to followers.",
			func() float64 { return float64(s.source.Stats().RecordsShipped) })
	}
	if s.cfg.Role == RoleFollower {
		r.GaugeFunc("harmony_repl_follower_lag_records", "Follower lag behind the leader's head.",
			func() float64 {
				s.replMu.Lock()
				f := s.follower
				s.replMu.Unlock()
				if f == nil {
					return 0
				}
				return float64(f.Stats().Lag)
			})
		r.GaugeFunc("harmony_repl_follower_applied_lsn", "Newest WAL record applied locally.",
			func() float64 {
				s.replMu.Lock()
				f := s.follower
				s.replMu.Unlock()
				if f == nil {
					return 0
				}
				return float64(f.Stats().AppliedLSN)
			})
	}
	if s.router != nil {
		r.CounterFunc("harmony_repl_router_queries_total", "Scatter-gather corpus queries.",
			func() float64 { return float64(s.router.Stats().Queries) })
		r.CounterFunc("harmony_repl_router_fanouts_total", "Per-shard fan-out requests issued.",
			func() float64 { return float64(s.router.Stats().Fanouts) })
		r.CounterFunc("harmony_repl_router_failovers_total", "Shards answered by the fallback replica.",
			func() float64 { return float64(s.router.Stats().Failovers) })
	}
}

// routeLabel normalizes a request path into a bounded label value, so
// per-schema and per-job paths cannot explode the route cardinality.
// (The outer middleware cannot see the mux's matched pattern, so this is
// a static mirror of the route table.)
func routeLabel(path string) string {
	switch {
	case path == "/v1/schemas/bulk":
		return path
	case strings.HasPrefix(path, "/v1/schemas/"):
		return "/v1/schemas/{name}"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/repl/v1/"):
		return path
	case strings.HasPrefix(path, "/v1/") || path == "/healthz" || path == "/metrics":
		return path
	default:
		return "other"
	}
}

// statusWriter captures the response code for metrics and slow logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers behind the middleware can flush per-batch acks and
// enable full-duplex request/response bodies.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// traced reports whether a request path gets a recorded trace. Scrape
// and introspection endpoints plus the replication long-poll would flood
// the ring with noise; they are still counted in the HTTP metrics.
func traced(path string) bool {
	return strings.HasPrefix(path, "/v1/") && path != "/v1/traces"
}

// instrument wraps the mux with metrics, tracing and the slow-request
// log: every request gets latency/count metrics by normalized route; /v1/
// requests additionally run under a span whose trace ID comes from the
// X-Harmony-Trace header (generated when absent, always echoed back).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		route := routeLabel(r.URL.Path)
		if traced(r.URL.Path) {
			tr, sp := obs.StartTrace(r.Header.Get(obs.TraceHeader), r.Method+" "+route)
			sp.SetAttr("path", r.URL.Path)
			w.Header().Set(obs.TraceHeader, tr.ID)
			next.ServeHTTP(sw, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
			sp.SetAttr("code", sw.code)
			sp.End()
			s.recorder.Record(tr)
		} else {
			next.ServeHTTP(sw, r)
		}
		elapsed := time.Since(start)
		s.httpDur.WithLabelValues(route).Observe(elapsed.Seconds())
		s.httpTotal.WithLabelValues(route, strconv.Itoa(sw.code)).Inc()
		if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
			s.cfg.Logger.Warn("slow request",
				"method", r.Method,
				"path", r.URL.Path,
				"code", sw.code,
				"elapsedMillis", elapsed.Milliseconds(),
				"trace", w.Header().Get(obs.TraceHeader))
		}
	})
}

// handleMetrics renders the process-wide and server registries in
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
	_ = s.obs.WritePrometheus(w)
}

// handleTraces serves the recent-trace ring, newest first. Query params:
// limit bounds the count, id filters to one trace ID.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.recorder.Traces()
	if id := r.URL.Query().Get("id"); id != "" {
		kept := traces[:0]
		for _, t := range traces {
			if t.ID == id {
				kept = append(kept, t)
			}
		}
		traces = kept
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
		if n < len(traces) {
			traces = traces[:n]
		}
	}
	writeJSON(w, http.StatusOK, traces)
}

// buildVersion extracts the module version and Go toolchain from the
// binary's build info, for /healthz.
func buildVersion() (version, goVersion string) {
	version, goVersion = "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		} else {
			version = "devel"
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	return version, goVersion
}
