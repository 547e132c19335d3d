package harmony

import (
	"context"
	"fmt"
	"io"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/corpus"
	"harmony/internal/eval"
	"harmony/internal/evolve"
	"harmony/internal/export"
	"harmony/internal/partition"
	"harmony/internal/registry"
	"harmony/internal/repl"
	"harmony/internal/schema"
	"harmony/internal/search"
	"harmony/internal/service"
	"harmony/internal/store"
	"harmony/internal/summarize"
	"harmony/internal/synth"
	"harmony/internal/workflow"
)

// Re-exported types. The facade exposes the full vocabulary of the library
// so that downstream users never import internal packages.
type (
	// Schema is a named forest of schema elements.
	Schema = schema.Schema
	// Element is one node of a schema tree.
	Element = schema.Element
	// Engine is a configured match engine.
	Engine = core.Engine
	// EngineOption configures an Engine (workers, propagation, sparse
	// scoring); apply with Engine.WithOptions.
	EngineOption = core.Option
	// Result is a raw match result (views + matrix).
	Result = core.Result
	// ScoreMatrix is the match-matrix contract shared by the dense and
	// sparse representations.
	ScoreMatrix = core.ScoreMatrix
	// SparseMatrix is the candidate-pair matrix produced by sparse
	// scoring.
	SparseMatrix = core.SparseMatrix
	// Correspondence is one scored element pair.
	Correspondence = core.Correspondence
	// Vote is a single voter's opinion on a pair.
	Vote = core.Vote
	// Summary is a schema summary (concepts + element mapping).
	Summary = summarize.Summary
	// Concept is one label of a summary.
	Concept = summarize.Concept
	// ConceptMatch is a concept-level correspondence.
	ConceptMatch = summarize.ConceptMatch
	// Binary is the {A-only, B-only, matched} partition of a match.
	Binary = partition.Binary
	// Vocabulary is an N-way comprehensive vocabulary.
	Vocabulary = partition.Vocabulary
	// Term is one vocabulary entry.
	Term = partition.Term
	// Registry is the enterprise metadata repository.
	Registry = registry.Registry
	// MatchArtifact is a stored match with provenance.
	MatchArtifact = registry.MatchArtifact
	// AssertedMatch is one element-level correspondence of a stored match
	// artifact.
	AssertedMatch = registry.AssertedMatch
	// Index is the schema search index.
	Index = search.Index
	// SearchResult is one ranked search hit.
	SearchResult = search.Result
	// Session is a concept-at-a-time matching workflow.
	Session = workflow.Session
	// Reviewer judges candidate correspondences.
	Reviewer = workflow.Reviewer
	// ValidatedMatch is a human-accepted correspondence.
	ValidatedMatch = workflow.ValidatedMatch
	// Workbook is the two-sheet spreadsheet deliverable.
	Workbook = export.Workbook
	// MatchTable is the sortable match-centric view.
	MatchTable = export.MatchTable
	// Dendrogram is an agglomerative clustering result.
	Dendrogram = cluster.Dendrogram
	// DistanceMatrix holds pairwise schema distances.
	DistanceMatrix = cluster.DistanceMatrix
)

// Schema loading.
var (
	// New creates an empty schema (see schema.New).
	NewSchema = schema.New
	// ParseDDL loads a relational schema from a SQL DDL subset.
	ParseDDL = schema.ParseDDL
	// ParseXSD loads an XML schema from an XSD subset.
	ParseXSD = schema.ParseXSD
	// ParseJSON loads a schema from the JSON interchange format.
	ParseJSON = schema.ParseJSON
)

// DefaultThreshold is the default confidence-filter operating point:
// correspondences at or above it are treated as matches. It suits typical
// mid-size schemata; evidence-rich industrial workloads push the score
// distribution upward and warrant a higher cut (the case-study experiments
// use 0.74 — see EXPERIMENTS.md). Choose per task from the score histogram
// (MatchResult.Histogram), as the paper's engineers did with the
// interactive confidence filter.
const DefaultThreshold = 0.4

// Matcher bundles an engine with a confidence threshold — the two choices
// every matching task needs. The zero value is not usable; call NewMatcher
// or NewMatcherWith.
type Matcher struct {
	Engine    *Engine
	Threshold float64
}

// NewMatcher returns the full Harmony configuration (all voters,
// evidence-weighted merging, structural propagation) at DefaultThreshold.
func NewMatcher() *Matcher {
	return &Matcher{Engine: core.PresetHarmony(), Threshold: DefaultThreshold}
}

// NewMatcherWith returns a matcher using a named preset: "harmony",
// "harmony-no-evidence", "coma", "cupid" or "name-only".
func NewMatcherWith(preset string, threshold float64) (*Matcher, error) {
	mk, ok := core.Presets()[preset]
	if !ok {
		return nil, fmt.Errorf("harmony: unknown preset %q", preset)
	}
	return &Matcher{Engine: mk(), Threshold: threshold}, nil
}

// Engine options, re-exported so callers can reconfigure preset engines
// without importing internal packages.
var (
	// WithWorkers sets the pair-loop worker count.
	WithWorkers = core.WithWorkers
	// WithPropagation configures structural score propagation.
	WithPropagation = core.WithPropagation
	// WithSparse enables sparse candidate-pair scoring with a per-source
	// candidate budget (<= 0 disables).
	WithSparse = core.WithSparse
	// WithSparseCutoff sets the minimum potential-pair count before
	// sparse scoring engages.
	WithSparseCutoff = core.WithSparseCutoff
)

// DefaultSparseBudget is the calibrated per-source candidate budget of
// sparse scoring (see EXPERIMENTS.md, E12).
const DefaultSparseBudget = core.DefaultSparseBudget

// Sparse returns the matcher with sparse candidate-pair scoring enabled at
// the given per-source budget (<= 0 disables). Matches below the engine's
// size cutoff still run dense; large matches score only retrieved
// candidate pairs, trading a bounded score drift (within the quality
// tolerance of the regression harness) for a several-fold speedup.
func (m *Matcher) Sparse(budget int) *Matcher {
	m.Engine = m.Engine.WithOptions(core.WithSparse(budget))
	return m
}

// Match scores every element pair of the two schemata and wraps the result
// with the matcher's threshold for downstream analysis.
func (m *Matcher) Match(a, b *Schema) *MatchResult {
	return &MatchResult{raw: m.Engine.Match(a, b), threshold: m.Threshold}
}

// MatchResult wraps a raw match with the analysis operations the paper's
// decision makers consume.
type MatchResult struct {
	raw       *core.Result
	threshold float64
}

// Raw exposes the underlying views and matrix.
func (r *MatchResult) Raw() *Result { return r.raw }

// Threshold returns the confidence threshold used by the analyses.
func (r *MatchResult) Threshold() float64 { return r.threshold }

// Correspondences returns the one-to-one match selection at the threshold.
func (r *MatchResult) Correspondences() []Correspondence {
	return core.SelectGreedyOneToOne(r.raw.Matrix, r.threshold)
}

// AllAbove returns every correspondence at or above the threshold (m:n).
func (r *MatchResult) AllAbove() []Correspondence {
	return core.SelectThreshold(r.raw.Matrix, r.threshold)
}

// Partition computes the {A-only, B-only, matched} decision partition from
// the one-to-one selection.
func (r *MatchResult) Partition() *Binary {
	return partition.FromResult(r.raw, r.threshold, true)
}

// LiftConcepts aggregates the match to concept level using two summaries.
func (r *MatchResult) LiftConcepts(sa, sb *Summary) []ConceptMatch {
	opts := summarize.DefaultLiftOptions
	opts.Threshold = r.threshold
	return summarize.LiftOneToOne(summarize.Lift(r.raw, sa, sb, opts))
}

// Workbook builds the two-sheet outer-join spreadsheet from summaries and
// validated matches. Pass nil validated to derive element rows from the
// automatic one-to-one selection.
func (r *MatchResult) Workbook(sa, sb *Summary, validated []ValidatedMatch) *Workbook {
	if validated == nil {
		for _, c := range r.Correspondences() {
			validated = append(validated, ValidatedMatch{
				Src:   r.raw.Src.View(c.Src).El,
				Dst:   r.raw.Dst.View(c.Dst).El,
				Score: c.Score,
			})
		}
	}
	return export.Build(r.raw.Src.Schema, r.raw.Dst.Schema, sa, sb, r.LiftConcepts(sa, sb), validated)
}

// WriteReport renders the big-picture text report.
func (r *MatchResult) WriteReport(w io.Writer, sa, sb *Summary, validated []ValidatedMatch) error {
	if validated == nil {
		for _, c := range r.Correspondences() {
			validated = append(validated, ValidatedMatch{
				Src:   r.raw.Src.View(c.Src).El,
				Dst:   r.raw.Dst.View(c.Dst).El,
				Score: c.Score,
			})
		}
	}
	rep := &export.Report{
		A: r.raw.Src.Schema, B: r.raw.Dst.Schema,
		Partition:      r.Partition().Stats(),
		ConceptMatches: r.LiftConcepts(sa, sb),
		SummaryA:       sa, SummaryB: sb,
		Validated: validated,
	}
	return rep.Render(w)
}

// Summarization entry points.

// SummarizeRoots builds the one-concept-per-top-level-element summary the
// case study's engineers used (140 concepts for SA, 51 for SB).
func SummarizeRoots(s *Schema) *Summary { return summarize.FromRoots(s) }

// SummarizeAuto computes a k-concept structural summary (Yu & Jagadish
// style importance).
func SummarizeAuto(s *Schema, k int) *Summary { return summarize.Automatic(s, k) }

// NewSummary returns an empty manual summary for concept labelling.
func NewSummary(s *Schema) *Summary { return summarize.New(s) }

// ComprehensiveVocabulary runs the matcher over every pair of schemata and
// builds the N-way vocabulary with its 2^N-1 Venn cells.
func (m *Matcher) ComprehensiveVocabulary(schemas []*Schema) (*Vocabulary, error) {
	return partition.BuildFromEngine(m.Engine, schemas, m.Threshold)
}

// WriteVocabulary renders a vocabulary's cell table.
func WriteVocabulary(w io.Writer, v *Vocabulary, examplesPerCell int) error {
	return export.RenderVocabulary(w, v, examplesPerCell)
}

// Clustering entry points.

// QuickDistances computes approximate inter-schema distances from token
// profiles (no pairwise matching).
func QuickDistances(schemas []*Schema) *DistanceMatrix {
	return cluster.QuickDistances(schemas)
}

// MatchDistances computes exact overlap-based distances with the matcher
// (N(N-1)/2 full matches).
func (m *Matcher) MatchDistances(schemas []*Schema) *DistanceMatrix {
	return cluster.Distances(m.Engine, schemas, m.Threshold)
}

// ClusterSchemas cuts an average-linkage dendrogram into k clusters and
// returns per-schema labels; use ProposeCOIs for automatic k selection.
func ClusterSchemas(d *DistanceMatrix, k int) []int {
	return cluster.Agglomerative(d, cluster.Average).Cut(k)
}

// ProposeCOIs clusters schemata into candidate communities of interest,
// choosing the cluster count with the largest-gap heuristic. It returns
// labels and the dendrogram for inspection.
func ProposeCOIs(d *DistanceMatrix) ([]int, *Dendrogram) {
	dg := cluster.Agglomerative(d, cluster.Average)
	return dg.Cut(dg.SuggestCut()), dg
}

// Search and registry entry points.

// NewIndex returns an empty schema search index.
func NewIndex() *Index { return search.NewIndex() }

// NewRegistry returns an empty metadata repository.
func NewRegistry() *Registry { return registry.New() }

// LoadRegistry reads a repository saved with Registry.Save.
func LoadRegistry(path string) (*Registry, error) { return registry.Load(path) }

// Durable storage: the registry's event-sourced persistence engine. A
// Store recovers a registry from snapshot + write-ahead-log replay and
// journals every subsequent mutation (schema add/version/delete, match
// add/update, atomic upgrade batches) under a configurable fsync policy,
// replacing save-on-a-timer JSON dumps. Registries without a store keep
// their in-memory behavior.

type (
	// Store is the durable WAL + snapshot storage engine bound to one
	// registry; open with OpenStore.
	Store = store.Store
	// StoreOptions configures OpenStore (directory, fsync policy,
	// snapshot cadence, legacy migration source).
	StoreOptions = store.Options
	// StoreStats is the store's operational snapshot (log position,
	// replay debt, commit counters, last persistence error).
	StoreStats = store.Stats
	// FsyncPolicy says when WAL appends reach stable storage.
	FsyncPolicy = store.FsyncPolicy
	// RegistryOp is one journaled registry mutation.
	RegistryOp = registry.Op
	// RegistryJournal receives registry mutations as typed op batches;
	// a Store is one, and tests can supply their own.
	RegistryJournal = registry.Journal
)

// WAL durability policies.
const (
	// FsyncPerCommit syncs after every commit: a returned mutation is
	// durable (the default).
	FsyncPerCommit = store.FsyncPerCommit
	// FsyncInterval syncs on a background cadence: bounded loss,
	// amortized cost.
	FsyncInterval = store.FsyncInterval
	// FsyncOff leaves flushing to the OS.
	FsyncOff = store.FsyncOff
)

// OpenStore recovers (or initializes) a durable store directory and
// returns the engine with its registry attached (Store.Registry). With
// StoreOptions.MigrateFrom set and an empty directory, a legacy
// Registry.Save JSON file seeds the first snapshot.
var OpenStore = store.Open

// Replication: WAL-shipping leader/follower clusters over the durable
// store. A leader's store serves snapshot bootstrap plus LSN-ordered
// record streaming (ReplSource); followers mirror it byte-for-byte by
// appending the shipped records through the same replay path
// (ReplFollower); a ReplRouter fans corpus top-k queries across the
// replica set and merges the partials exactly. The service layer wires
// all three behind harmonyd's -role/-peer/-replicas flags.

type (
	// ReplSource serves one store's replication surface (snapshot, WAL
	// tail with long-poll, status); mount its handlers on the leader.
	ReplSource = repl.Source
	// ReplFollower tails a leader's WAL into a local registry (and
	// store, when present); start with StartReplFollower.
	ReplFollower = repl.Follower
	// ReplFollowerOptions configures StartReplFollower (peer URL,
	// replica ID, target store/registry, poll and retry cadence).
	ReplFollowerOptions = repl.Options
	// ReplRouter scatter-gathers corpus top-k queries across replicas.
	ReplRouter = repl.Router
)

// NewReplSource wraps a store in its replication serving surface.
var NewReplSource = repl.NewSource

// StartReplFollower begins tailing the peer's WAL; Stop it to halt.
var StartReplFollower = repl.StartFollower

// NewReplRouter builds a scatter-gather router over replica base URLs.
var NewReplRouter = repl.NewRouter

// Workflow entry points.

// NewSession builds a concept-at-a-time matching session over the source
// summary (one task per concept) at the matcher's threshold.
func (m *Matcher) NewSession(src, dst *Schema, srcSummary *Summary) (*Session, error) {
	return workflow.NewSession(m.Engine, src, dst, srcSummary, m.Threshold)
}

// EstimateEffort converts workload counts into a planning estimate using
// the default effort model (calibrated to the case study's pace).
func EstimateEffort(reviews, concepts, teamSize int) workflow.Effort {
	return workflow.DefaultEffortModel.EstimateCounts(reviews, concepts, teamSize)
}

// Service layer: the building blocks of the harmonyd match-as-a-service
// daemon, re-exported so library users can embed the same infrastructure —
// a fingerprint-keyed match cache with single-flight computation, an async
// job engine, and the HTTP server itself.

type (
	// MatchCache is a bounded LRU of match outcomes keyed by schema
	// content fingerprints plus the engine configuration, with
	// single-flight computation (one compute per stampede).
	MatchCache = service.Cache
	// MatchCacheKey identifies one cached match result.
	MatchCacheKey = service.CacheKey
	// MatchOutcome is the cacheable product of one pairwise match.
	MatchOutcome = service.MatchOutcome
	// MatchPair is one path-level correspondence of a MatchOutcome.
	MatchPair = service.MatchPair
	// JobQueue is an async job engine with a fixed worker pool, job
	// states, cancellation and per-job timing.
	JobQueue = service.Queue
	// Job is the externally visible snapshot of one queued job.
	Job = service.Job
	// ServiceConfig configures an embedded match service.
	ServiceConfig = service.Config
	// ServiceServer is the JSON-over-HTTP match-as-a-service front-end.
	ServiceServer = service.Server
)

var (
	// NewMatchCache returns an empty match cache bounded to capacity
	// entries.
	NewMatchCache = service.NewCache
	// NewJobQueue starts a job queue with the given worker-pool size and
	// backlog bound; callers must Close it.
	NewJobQueue = service.NewQueue
	// NewServiceServer builds the match-as-a-service HTTP front-end
	// (registry + cache + jobs); mount its Handler on any mux.
	NewServiceServer = service.New
	// WarmStartCache seeds a match cache from the artifacts a registry
	// holds (reuse of persisted match results across processes).
	WarmStartCache = service.WarmStart
)

// Corpus-scale matching: one query schema against the full registry,
// returning ranked top-k matched schemata with correspondences — blocking
// over the search index, sharded engine scoring with a streaming top-k
// heap, and transitive reuse of stored mappings through hub schemata.

type (
	// CorpusPipeline answers top-k corpus queries over one registry.
	CorpusPipeline = corpus.Pipeline
	// CorpusConfig tunes one corpus query (candidate budget, k,
	// threshold, overlap floor, reuse coverage).
	CorpusConfig = corpus.Config
	// CorpusResult is the product of one corpus query: ranked matches
	// plus pipeline execution stats.
	CorpusResult = corpus.Result
	// CorpusMatch is one ranked corpus hit with its correspondences.
	CorpusMatch = corpus.SchemaMatch
	// CorpusPair is one element-level correspondence of a corpus hit.
	CorpusPair = corpus.Pair
	// CorpusQueryStats counts what one corpus query did (candidates,
	// engine runs, reused mappings, cache hits).
	CorpusQueryStats = corpus.Stats
)

// NewCorpusPipeline builds a corpus-query pipeline over a registry. The
// cache port may be nil; pass a corpus.Cache implementation to share
// outcomes with an external store (the service layer does this with its
// fingerprint-keyed match cache).
var NewCorpusPipeline = corpus.NewPipeline

// TopKAgainst runs a corpus query through the pipeline using this
// matcher's engine, defaulting the confidence threshold to the matcher's.
func (m *Matcher) TopKAgainst(ctx context.Context, p *CorpusPipeline, q *Schema, cfg CorpusConfig) (*CorpusResult, error) {
	if cfg.Threshold == 0 {
		cfg.Threshold = m.Threshold
	}
	return p.TopK(ctx, m.Engine, q, cfg)
}

// Synthetic workloads and evaluation. The generator reproduces the paper's
// proprietary workload shapes with known ground truth; it is public because
// downstream users need benchmark workloads with oracles just as this
// repository's experiments do.

type (
	// Truth is the generation oracle: element path -> hidden semantic key.
	Truth = synth.Truth
	// PRF is a precision/recall/F1 measurement against ground truth.
	PRF = eval.PRF
)

// GenerateCaseStudy produces the paper's §3 workload: SA (relational, 1378
// elements, 140 concepts) and SB (XML, 784 elements, 51 concepts) with
// ground truth calibrated to the reported 34%/66% overlap split.
func GenerateCaseStudy(seed int64) (sa, sb *Schema, truth *Truth) {
	return synth.CaseStudy(seed)
}

// GenerateExpanded produces the five-schema expanded-study workload
// {SA, SC, SD, SE, SF} with every one of the 31 Venn cells occupied in
// ground truth.
func GenerateExpanded(seed int64) ([]*Schema, *Truth) {
	return synth.Expanded(seed)
}

// GenerateCollection produces a repository-scale collection with planted
// domain clusters; labels give each schema's true domain.
func GenerateCollection(seed int64, domains, perDomain int) ([]*Schema, []int, *Truth) {
	return synth.Collection(seed, domains, perDomain)
}

// NewOracleReviewer returns a workflow reviewer scripted from ground truth
// with a human error model: it accepts true correspondences with
// probability diligence and false ones with probability falseAccept.
func NewOracleReviewer(name string, truth *Truth, schemaA, schemaB string, diligence, falseAccept float64, seed int64) Reviewer {
	return eval.NewOracleReviewer(name, truth, schemaA, schemaB, diligence, falseAccept, seed)
}

// Score measures selected correspondences against ground truth.
func Score(truth *Truth, a, b *Schema, sel []Correspondence) PRF {
	return eval.ScoreCorrespondences(truth, a, b, sel)
}

// Churn configures one synthetic schema-evolution step (rename / move /
// remove / add / retype rates).
type Churn = synth.Churn

// EvolutionLog is the ground-truth change record of one synthetic
// evolution step.
type EvolutionLog = synth.EvolutionLog

// ChurnMixed spreads a total churn rate across change kinds in realistic
// proportions.
var ChurnMixed = synth.ChurnMixed

// GenerateEvolution applies one synthetic evolution step to a generated
// schema: the returned next version (same name), a truth re-keyed to the
// new paths, and the exact change log to score diffs and migrations
// against.
func GenerateEvolution(s *Schema, truth *Truth, seed int64, churn Churn) (*Schema, *Truth, *EvolutionLog) {
	return synth.Evolve(s, truth, seed, churn)
}

// GeneratePair produces a small two-schema workload with a controlled
// concept overlap (shared concepts common to both sides, partially
// overlapping attributes) — the test-scale analog of GenerateCaseStudy.
func GeneratePair(seed int64, conceptsA, conceptsB, shared, attrs int) (a, b *Schema, truth *Truth) {
	return synth.Pair(seed, conceptsA, conceptsB, shared, attrs)
}

// Schema evolution: versioned registries keep the validated mapping — the
// expensive asset — alive across schema releases. Diff two versions into a
// typed change set, migrate stored artifacts through it, and re-match only
// the dirty elements.

type (
	// SchemaChange is one element-level difference between two schema
	// versions.
	SchemaChange = evolve.Change
	// SchemaChangeSet is the typed structural diff of two schema versions
	// (added / removed / renamed / moved / retyped).
	SchemaChangeSet = evolve.ChangeSet
	// DiffOptions tunes structural diffing (rename threshold, engine).
	DiffOptions = evolve.Options
	// MigrationReport accounts for one artifact's migration through a
	// diff.
	MigrationReport = evolve.MigrationReport
	// UpgradeReport is the product of one registry version bump with
	// mapping maintenance.
	UpgradeReport = evolve.UpgradeReport
	// ArtifactSide names which side of an artifact an evolved schema is
	// on.
	ArtifactSide = evolve.Side
	// RegistryEntry is one registered schema version with catalog
	// metadata.
	RegistryEntry = registry.Entry
)

// Artifact sides.
const (
	ArtifactSideA = evolve.SideA
	ArtifactSideB = evolve.SideB
)

var (
	// DiffSchemas computes the typed change set between two versions of a
	// schema, with engine-backed rename detection on the residue.
	DiffSchemas = evolve.Diff
	// MigrateArtifact patches one stored match artifact through a change
	// set, preserving surviving human decisions.
	MigrateArtifact = evolve.Migrate
	// UpgradeSchema bumps a registered schema to its next version and
	// migrates every stored artifact referencing it.
	UpgradeSchema = evolve.Upgrade
	// RematchArtifacts runs the scoped re-match of an upgraded schema's
	// dirty elements against its artifact counterparts.
	RematchArtifacts = evolve.Rematch
	// WhichSide reports which side of an artifact a schema is on.
	WhichSide = evolve.ArtifactSide
)

// Evolve performs a full version bump with mapping maintenance using this
// matcher: diff, registry version chain, artifact migration, and the
// scoped re-match of dirty elements at the matcher's threshold. It is the
// library form of the service's PUT /v1/schemas/{name}.
func (m *Matcher) Evolve(reg *Registry, next *Schema, steward string, tags ...string) (*UpgradeReport, error) {
	rep, d, err := evolve.Upgrade(reg, next, steward, evolve.Options{Engine: m.Engine}, tags...)
	if err != nil {
		return nil, err
	}
	if _, err := evolve.Rematch(reg, m.Engine, d, rep, m.Threshold); err != nil {
		return nil, err
	}
	return rep, nil
}

// SuggestedThreshold proposes a confidence-filter operating point from
// this result's score distribution, automating the interactive tuning the
// paper's engineers performed (see EXPERIMENTS.md for its calibration).
func (r *MatchResult) SuggestedThreshold() float64 {
	return core.SuggestThreshold(r.raw.Matrix)
}

// Histogram buckets this result's scored pairs into n equal-width bins
// over [-1, 1] (20 when n <= 0): the score distribution to inspect when
// choosing a threshold.
func (r *MatchResult) Histogram(n int) []int {
	return core.Histogram(r.raw.Matrix, n)
}

// WithThreshold returns a view of the same match result at a different
// confidence threshold; the matrix is shared, not recomputed.
func (r *MatchResult) WithThreshold(threshold float64) *MatchResult {
	return &MatchResult{raw: r.raw, threshold: threshold}
}
