// Package service turns the Harmony matching library into shared
// enterprise infrastructure: a match-as-a-service layer in the spirit of
// the paper's §5 research agenda, where schema matching is not a one-shot
// tool run but a long-lived facility many teams query, with past match
// results reused across projects.
//
// The package provides three building blocks and a thin HTTP front-end:
//
//   - Cache: a bounded LRU of match results keyed by content-addressed
//     schema fingerprints plus the engine configuration, with single-flight
//     computation so a stampede of identical requests scores the pair once.
//   - Queue: an asynchronous job engine with a fixed worker pool, job
//     states (queued/running/done/failed/cancelled), cancellation and
//     per-job timing, for the workloads too heavy for a request cycle
//     (N-way vocabulary builds, repository clustering, large matches).
//   - WarmStart: reuse of match artifacts persisted in the metadata
//     registry as cache seed data, so a restarted daemon serves yesterday's
//     matches from memory again.
//   - Server: JSON-over-HTTP endpoints (/v1/schemas, /v1/match, /v1/jobs,
//     /v1/search, /v1/stats, /healthz) over a registry.Registry whose
//     mutations are durable per-op through the internal/store WAL (with
//     background snapshot compaction), or held in memory only when no
//     store directory is configured; cmd/harmonyd is its daemon wrapper.
package service

import (
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"time"

	"harmony/internal/core"
	"harmony/internal/repl"
	"harmony/internal/search"
	"harmony/internal/store"
)

// DefaultSparseBudget mirrors the engine's calibrated sparse candidate
// budget for daemon flag defaults.
const DefaultSparseBudget = core.DefaultSparseBudget

// Config configures a Server.
type Config struct {
	// Preset is the default engine preset for requests that do not name
	// one ("harmony" when empty).
	Preset string
	// Threshold is the default confidence threshold for requests that do
	// not set one.
	Threshold float64
	// Workers is the job queue's worker-pool size (default 2).
	Workers int
	// Backlog is the job queue's bounded submission backlog (default 64).
	// When full, job submission fails fast instead of queueing unboundedly.
	Backlog int
	// CacheSize is the match cache capacity in entries (default 256).
	CacheSize int
	// ProfileCache is the compiled-profile cache capacity in schemas
	// (default core.DefaultProfileCacheSize; negative is an error). All
	// preset engines share one cache, and it is invalidated alongside
	// the match cache on schema evolution. Boot fills it with the newest
	// schemata it can hold (warmProfiles).
	ProfileCache int
	// StoreDir, when non-empty, enables the durable storage engine
	// (internal/store): every registry mutation commits to a
	// write-ahead log before the request completes, and background
	// snapshots bound crash-recovery replay. Empty keeps the registry in
	// memory only.
	StoreDir string
	// MigrateFrom names a legacy registry JSON file (as written by
	// Registry.Save) that an empty store imports one-shot; afterwards the
	// store owns the data and the file is no longer read. It requires
	// StoreDir.
	MigrateFrom string
	// Fsync is the WAL durability policy when StoreDir is set: "commit"
	// (default; a returned mutation is durable), "interval" (amortized
	// background syncs) or "off".
	Fsync string
	// SnapshotInterval is how often the background compaction loop checks
	// whether the WAL has grown past SnapshotEvery records (default 1m).
	SnapshotInterval time.Duration
	// SnapshotEvery is the WAL record count that triggers a background
	// snapshot + log truncation (default 1024).
	SnapshotEvery int
	// CorpusCandidates is the default blocking budget of corpus queries
	// that do not set one (default 32).
	CorpusCandidates int
	// CorpusTopK is the default result count of corpus queries that do
	// not set one (default 5).
	CorpusTopK int
	// CorpusBlockBudget is the default document-scoring budget of the
	// blocking index retrieval (0 = exact; see corpus.Config.BlockBudget).
	CorpusBlockBudget int
	// IndexTailMerge overrides the search index's tail-merge threshold
	// (0 keeps the index default): how many incrementally added schemata
	// accumulate in the mutable tail before a background merge folds them
	// into the flat compressed segment.
	IndexTailMerge int
	// IngestWorkers is the parallelism of the bulk-ingest prepare stage
	// (parse, profile compilation, index-document preparation per NDJSON
	// batch). Default: GOMAXPROCS.
	IngestWorkers int
	// SparseBudget is the per-source candidate budget of sparse
	// candidate-pair scoring in the match engines (0 picks
	// core.DefaultSparseBudget, negative disables sparse scoring).
	// Matches below the engine's size cutoff always run dense, so small
	// interactive matches are unaffected; large uncached matches score
	// only retrieved candidate pairs.
	SparseBudget int
	// Role selects the replication role: "" or RoleLeader for a writable
	// node (with a store it also serves the /repl/v1 API), RoleFollower
	// for a read-only mirror that tails PeerURL's WAL. Followers answer
	// reads (search, corpus top-k, cached matches) and 403 mutations,
	// pointing clients at the leader.
	Role string
	// PeerURL is the leader's base URL (required in follower mode).
	PeerURL string
	// ReplicaID names this node to the leader; it keys the leader-side
	// segment pin for this follower's catch-up cursor (default: the
	// hostname).
	ReplicaID string
	// Replicas are replica base URLs (leader + followers) for
	// scatter-gather corpus fan-out. When set, corpus top-k queries that
	// are not themselves shard-local are partitioned across the set and
	// merged exactly.
	Replicas []string
	// LagThreshold is the follower lag, in WAL records, beyond which
	// /healthz reports degraded (default 1024).
	LagThreshold uint64
	// CorpusWorkers bounds each corpus query's scoring worker pool
	// (default: GOMAXPROCS, via the corpus package). Replicated
	// deployments typically set it to cores/replica-count so one fanned
	// query does not oversubscribe every node.
	CorpusWorkers int
	// SlowRequest is the latency threshold beyond which a request is
	// logged through slog at Warn level (default 1s; negative disables).
	SlowRequest time.Duration
	// TraceRing bounds the in-memory ring of recent traces served at
	// GET /v1/traces (default 256).
	TraceRing int
	// Logger receives structured operational records (slow-request
	// warnings). Nil falls back to slog.Default().
	Logger *slog.Logger
}

// Replication roles for Config.Role.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

func (c Config) withDefaults() (Config, error) {
	if c.Preset == "" {
		c.Preset = "harmony"
	}
	if _, ok := core.Presets()[c.Preset]; !ok {
		return c, fmt.Errorf("service: unknown preset %q", c.Preset)
	}
	if c.Threshold == 0 {
		c.Threshold = 0.4
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return c, fmt.Errorf("service: threshold %v out of [0,1]", c.Threshold)
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Backlog <= 0 {
		c.Backlog = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.ProfileCache < 0 {
		return c, fmt.Errorf("service: negative profile cache capacity %d", c.ProfileCache)
	}
	if c.ProfileCache == 0 {
		c.ProfileCache = core.DefaultProfileCacheSize
	}
	if c.MigrateFrom != "" && c.StoreDir == "" {
		return c, fmt.Errorf("service: migrating %s needs a store directory", c.MigrateFrom)
	}
	if _, err := store.ParseFsyncPolicy(c.Fsync); err != nil {
		return c, fmt.Errorf("service: %w", err)
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = time.Minute
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.CorpusCandidates <= 0 {
		c.CorpusCandidates = 32
	}
	if c.CorpusTopK <= 0 {
		c.CorpusTopK = 5
	}
	if c.SparseBudget == 0 {
		c.SparseBudget = core.DefaultSparseBudget
	}
	if c.IngestWorkers <= 0 {
		c.IngestWorkers = runtime.GOMAXPROCS(0)
	}
	switch c.Role {
	case "", RoleLeader:
		if c.Role == RoleLeader && c.PeerURL != "" {
			return c, fmt.Errorf("service: leader role does not take a peer URL")
		}
	case RoleFollower:
		if c.PeerURL == "" {
			return c, fmt.Errorf("service: follower role needs a peer URL")
		}
	default:
		return c, fmt.Errorf("service: unknown role %q (want %q or %q)", c.Role, RoleLeader, RoleFollower)
	}
	if c.ReplicaID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "replica"
		}
		c.ReplicaID = host
	}
	if c.LagThreshold == 0 {
		c.LagThreshold = 1024
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c, nil
}

// Stats is the service-wide counters snapshot served by GET /v1/stats.
type Stats struct {
	UptimeSeconds float64      `json:"uptimeSeconds"`
	Schemas       int          `json:"schemas"`
	Artifacts     int          `json:"artifacts"`
	Cache         CacheStats   `json:"cache"`
	Queue         QueueStats   `json:"queue"`
	Corpus        CorpusStats  `json:"corpus"`
	Evolve        EvolveStats  `json:"evolve"`
	Ingest        IngestStats  `json:"ingest"`
	Index         search.Stats `json:"index"`
	// Profiles is the compiled-profile cache snapshot.
	Profiles core.ProfileCacheStats `json:"profiles"`
	// Store is the durable storage engine's snapshot (nil for in-memory
	// servers).
	Store *store.Stats `json:"store,omitempty"`
	// Repl is the replication block (nil on unreplicated nodes).
	Repl *ReplStats `json:"repl,omitempty"`
}

// ReplStats is the replication section of /v1/stats: the node's role
// plus whichever components it runs — the follower tail, the leader's
// serving source, the scatter-gather router.
type ReplStats struct {
	Role     string              `json:"role"`
	Follower *repl.FollowerStats `json:"follower,omitempty"`
	Source   *repl.SourceStats   `json:"source,omitempty"`
	Router   *repl.RouterStats   `json:"router,omitempty"`
	// RedirectsTotal counts mutations this node refused as a read-only
	// follower (403 + Location pointing at the leader).
	RedirectsTotal uint64 `json:"redirectsTotal"`
}
