// Command harmonyd is the Harmony match-as-a-service daemon: an HTTP
// front-end over the schema registry, the fingerprint-keyed match cache
// and the async job engine, turning the library into the shared enterprise
// facility the paper's §5 envisions.
//
// Usage:
//
//	harmonyd [flags]
//
// Flags:
//
//	-addr ADDR           listen address (default :8071)
//	-store-dir DIR       durable storage engine directory: every mutation
//	                     commits to a write-ahead log before the request
//	                     completes, with periodic snapshot + log truncation
//	                     (empty = in-memory only)
//	-fsync POLICY        WAL durability policy with -store-dir: commit
//	                     (default; a returned mutation is durable), interval
//	                     (amortized background syncs) or off
//	-snapshot-interval D background compaction check cadence (default 1m)
//	-snapshot-every N    WAL records that trigger snapshot + truncation
//	                     (default 1024)
//	-preset NAME         default matcher preset (default harmony)
//	-threshold F         default confidence filter (default 0.4)
//	-workers N           job worker-pool size (default 2)
//	-backlog N           job submission backlog bound: submissions beyond it
//	                     are load-shed with 429 + a Retry-After drain
//	                     estimate (default 64)
//	-ingest-workers N    bulk-ingest prepare parallelism — parse, fingerprint
//	                     and index-document workers per stream (default
//	                     GOMAXPROCS)
//	-cache N             match cache capacity in entries (default 256)
//	-profile-cache N     compiled-profile cache capacity in schemas (default
//	                     0 = 128; negative is a startup error)
//	-corpus-candidates N default blocking budget of corpus queries (default 32)
//	-corpus-topk N       default result count of corpus queries (default 5)
//	-corpus-block-budget N default document-scoring budget of the blocking
//	                     index retrieval: the block-max search stops after
//	                     exactly scoring N documents and reports the
//	                     truncation in stats (default 0 = exact)
//	-sparse-budget N     per-source candidate budget of sparse candidate-pair
//	                     scoring for large matches (default 64; 0 disables
//	                     sparse mode, every pair is scored densely)
//	-role ROLE           replication role: leader (writable; serves the
//	                     /repl/v1 API with -store-dir) or follower (read-only
//	                     mirror tailing -peer's WAL; mutations answer 403
//	                     pointing at the leader). Empty = unreplicated.
//	-peer URL            the leader's base URL (required with -role=follower)
//	-replica-id ID       this node's name on the leader — keys the segment
//	                     pin that protects its catch-up cursor from
//	                     compaction (default: hostname)
//	-replicas CSV        replica base URLs for scatter-gather corpus serving:
//	                     corpus top-k queries are partitioned across the set
//	                     by schema fingerprint and merged exactly
//	-lag-threshold N     follower lag, in WAL records, beyond which /healthz
//	                     reports degraded (default 1024)
//	-corpus-workers N    per-query scoring worker bound (default: GOMAXPROCS;
//	                     replicated deployments typically set cores/replicas)
//	-promote URL         one-shot admin mode: ask the follower at URL to
//	                     catch up, stop tailing and become a writable leader
//	                     (POST /repl/v1/promote), print the result and exit
//	-log-format FORMAT   structured log encoding: text (default) or json
//	-log-level LEVEL     minimum log level: debug, info (default), warn, error
//	-slow-request D      log requests slower than D at WARN with their trace
//	                     ID (default 1s; 0 disables)
//	-pprof-addr ADDR     serve net/http/pprof on a dedicated listener
//	                     (e.g. localhost:6060; empty = disabled)
//
// Endpoints:
//
//	POST   /v1/schemas         register a schema (JSON interchange format)
//	POST   /v1/schemas/bulk    streaming NDJSON bulk ingest: one schema per
//	                           line, admitted in parallel-prepared batches,
//	                           one ack line per batch after its WAL commit
//	                           (ack ⇒ durable under -fsync commit)
//	GET    /v1/schemas         catalog listing with fingerprints
//	GET    /v1/schemas/{name}  one schema, full JSON
//	PUT    /v1/schemas/{name}  register the next version: diff against the
//	                           current one, migrate stored match artifacts
//	                           (re-pathing renames/moves, dropping removals),
//	                           evict cache entries keyed by the old
//	                           fingerprint, and re-match only the dirty
//	                           elements (?rematch=sync|async|none)
//	DELETE /v1/schemas/{name}  unregister (drops its match artifacts)
//	POST   /v1/match           synchronous pairwise match (cached)
//	POST   /v1/corpus/match    one query schema vs the whole registry (top-k)
//	GET    /v1/corpus/topk     corpus query, convenience GET form
//	POST   /v1/jobs            submit async match / vocabulary / cluster /
//	                           corpus / migrate job
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job state, timing and result
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/search          free-text schema/fragment search
//	GET    /v1/stats           cache, queue, corpus, index and store counters
//	GET    /metrics            Prometheus text exposition of all harmony_*
//	                           series (engine, cache, queue, store, repl,
//	                           corpus)
//	GET    /v1/traces          recent request/job traces as span trees
//	GET    /healthz            liveness probe; reports status "degraded" with
//	                           the error when the last WAL append or snapshot
//	                           failed, or when a follower's replication
//	                           stream is down or lagging
//	GET    /repl/v1/snapshot   bootstrap snapshot for followers (store mode)
//	GET    /repl/v1/wal        LSN-ordered WAL records, long-polling
//	GET    /repl/v1/status     leader head / durable / snapshot LSNs
//	POST   /repl/v1/promote    turn this follower into a writable leader
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight HTTP
// requests drain, jobs are cancelled, and with -store-dir a final
// snapshot compacts the WAL before the store closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"harmony/internal/obs"
	"harmony/internal/service"
)

// promoteFollower is the -promote admin mode: one POST to the follower's
// promotion endpoint, result on stdout. The daemon side drains the
// replication stream first, so running this against a caught-up follower
// loses nothing; against a dead leader it promotes with whatever has
// been replicated — the failover case.
func promoteFollower(baseURL string) error {
	resp, err := http.Post(strings.TrimRight(baseURL, "/")+"/repl/v1/promote", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	fmt.Printf("%s\n", strings.TrimSpace(string(body)))
	return nil
}

func main() {
	addr := flag.String("addr", ":8071", "listen address")
	storeDir := flag.String("store-dir", "", "durable store directory (WAL + snapshots; empty = in-memory)")
	fsync := flag.String("fsync", "commit", "WAL durability policy with -store-dir: commit, interval or off")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute, "background compaction check cadence")
	snapshotEvery := flag.Int("snapshot-every", 1024, "WAL records that trigger snapshot + log truncation")
	preset := flag.String("preset", "harmony", "default matcher preset")
	threshold := flag.Float64("threshold", 0.4, "default confidence filter")
	workers := flag.Int("workers", 2, "job worker-pool size")
	backlog := flag.Int("backlog", 64, "job submission backlog bound: submissions beyond it answer 429 with Retry-After")
	ingestWorkers := flag.Int("ingest-workers", 0,
		"bulk-ingest prepare parallelism: parse, fingerprint and index-document workers per stream (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 256, "match cache capacity (entries)")
	profileCache := flag.Int("profile-cache", 0,
		"compiled-profile cache capacity in schemas (0 = default)")
	corpusCandidates := flag.Int("corpus-candidates", 32, "default blocking budget of corpus queries")
	corpusTopK := flag.Int("corpus-topk", 5, "default result count of corpus queries")
	corpusBlockBudget := flag.Int("corpus-block-budget", 0,
		"default document-scoring budget of the blocking index retrieval (0 = exact)")
	sparseBudget := flag.Int("sparse-budget", service.DefaultSparseBudget,
		"per-source candidate budget for sparse scoring of large matches (0 disables)")
	role := flag.String("role", "", "replication role: leader, follower or empty (unreplicated)")
	peer := flag.String("peer", "", "leader base URL (required with -role=follower)")
	replicaID := flag.String("replica-id", "", "this node's name on the leader (default: hostname)")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs for scatter-gather corpus serving")
	lagThreshold := flag.Uint64("lag-threshold", 1024, "follower lag (WAL records) beyond which /healthz degrades")
	corpusWorkers := flag.Int("corpus-workers", 0, "per-query corpus scoring worker bound (0 = GOMAXPROCS)")
	promote := flag.String("promote", "", "one-shot: promote the follower at this base URL and exit")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	slowRequest := flag.Duration("slow-request", time.Second, "log requests slower than this at WARN (0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this dedicated address (empty = disabled)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmonyd: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	logf := obs.Logf(logger)

	if *promote != "" {
		if err := promoteFollower(*promote); err != nil {
			logger.Error("promote failed", "url", *promote, "error", err)
			os.Exit(1)
		}
		return
	}

	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logf("harmonyd: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "error", err)
			}
		}()
	}

	var replicaSet []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			replicaSet = append(replicaSet, u)
		}
	}

	budget := *sparseBudget
	if budget <= 0 {
		budget = -1 // service.Config: negative disables, zero means default
	}
	slowReq := *slowRequest
	if slowReq <= 0 {
		slowReq = -1 // service.Config: negative disables, zero means default
	}
	srv, err := service.New(service.Config{
		Preset:            *preset,
		Threshold:         *threshold,
		Workers:           *workers,
		Backlog:           *backlog,
		IngestWorkers:     *ingestWorkers,
		CacheSize:         *cacheSize,
		ProfileCache:      *profileCache,
		StoreDir:          *storeDir,
		Fsync:             *fsync,
		SnapshotInterval:  *snapshotInterval,
		SnapshotEvery:     *snapshotEvery,
		CorpusCandidates:  *corpusCandidates,
		CorpusTopK:        *corpusTopK,
		CorpusBlockBudget: *corpusBlockBudget,
		SparseBudget:      budget,
		Role:              *role,
		PeerURL:           *peer,
		ReplicaID:         *replicaID,
		Replicas:          replicaSet,
		LagThreshold:      *lagThreshold,
		CorpusWorkers:     *corpusWorkers,
		SlowRequest:       slowReq,
		Logger:            logger,
	}, logf)
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("harmonyd serving",
			"addr", *addr, "preset", *preset, "threshold", *threshold,
			"workers", *workers, "cache", *cacheSize)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "error", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown failed", "error", err)
	}
	if err := srv.Close(); err != nil {
		logger.Error("close failed", "error", err)
	}
	logger.Info("stopped")
}
