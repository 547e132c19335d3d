package core

import (
	"iter"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/schema"
)

// Engine is a configured Harmony match engine: an ordered set of weighted
// voters, a merger, and execution options. The zero value is not usable;
// construct engines with NewEngine or a preset (PresetHarmony and friends).
//
// Engines are safe for concurrent use by multiple goroutines. The only
// state one carries across matches is its compiled-profile cache: every
// engine owns one, shared with the engines derived from it by
// WithOptions.
type Engine struct {
	voters  []WeightedVoter
	merger  Merger
	workers int

	// profiles caches compiled schema profiles, so repeated matches over
	// the same schema objects skip linguistic preprocessing entirely.
	profiles *ProfileCache

	// propagationRounds > 0 enables structural score propagation after
	// merging: leaf pair scores are blended with their parents' pair score
	// and container pair scores with their children's alignment, spreading
	// structural agreement through the matrix (in the spirit of similarity
	// flooding).
	propagationRounds int
	propagationAlpha  float64

	// sparseBudget > 0 enables sparse candidate-pair scoring: per source
	// element, at most sparseBudget targets survive token retrieval and
	// only those pairs are scored (see sparse.go). Matches smaller than
	// sparseCutoff potential pairs fall back to dense scoring.
	sparseBudget int
	sparseCutoff int
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the number of goroutines used for the pair loop.
// Defaults to GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// WithPropagation enables rounds of structural score propagation with the
// given blend factor alpha in [0,1] (0 disables; typical 0.15).
func WithPropagation(rounds int, alpha float64) Option {
	return func(e *Engine) {
		e.propagationRounds = rounds
		e.propagationAlpha = alpha
	}
}

// WithSparse enables sparse candidate-pair scoring with the given
// per-source candidate budget (DefaultSparseBudget is the calibrated
// default; budget <= 0 disables sparse mode). Matches below the sparse
// cutoff still run dense — sparse mode changes large-match cost, not
// small-match semantics.
func WithSparse(budget int) Option {
	return func(e *Engine) {
		if budget > 0 {
			e.sparseBudget = budget
		} else {
			e.sparseBudget = 0
		}
	}
}

// WithSparseCutoff sets the minimum number of potential pairs (rows×cols)
// before sparse scoring engages (default DefaultSparseCutoff). Tests force
// sparse mode on small workloads with a cutoff of 1.
func WithSparseCutoff(pairs int) Option {
	return func(e *Engine) {
		if pairs > 0 {
			e.sparseCutoff = pairs
		}
	}
}

// WithProfileCache replaces the engine's own compiled-profile cache with
// pc, so several engines share one: the daemon gives every engine preset
// serving one registry the same cache.
func WithProfileCache(pc *ProfileCache) Option {
	return func(e *Engine) {
		e.profiles = pc
	}
}

// NewEngine builds an engine from weighted voters and a merger.
func NewEngine(voters []WeightedVoter, merger Merger, opts ...Option) *Engine {
	e := &Engine{
		voters:   voters,
		merger:   merger,
		workers:  runtime.GOMAXPROCS(0),
		profiles: NewProfileCache(DefaultProfileCacheSize),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// WithOptions returns a copy of the engine with further options applied.
// The copy shares the (immutable) voter set and merger and the profile
// cache, so deriving a sparse or differently-parallel engine from a
// preset is cheap and reuses the preset's compiled profiles.
func (e *Engine) WithOptions(opts ...Option) *Engine {
	c := *e
	for _, o := range opts {
		o(&c)
	}
	return &c
}

// Voters returns the engine's weighted voters in order.
func (e *Engine) Voters() []WeightedVoter { return e.voters }

// Merger returns the engine's merger.
func (e *Engine) Merger() Merger { return e.merger }

// Result is the outcome of one match run: the preprocessed views of both
// schemata and the match matrix over their element IDs — dense for full
// scoring, a SparseMatrix when sparse candidate-pair scoring was active.
type Result struct {
	Src    *SchemaView
	Dst    *SchemaView
	Matrix ScoreMatrix
	// Scored counts the element pairs put through the voter stack: every
	// cell of a dense full match, the in-scope rows of a scoped one, the
	// stored cells of a sparse one. It equals Matrix.Pairs() except for
	// a dense MatchScoped, whose full-size matrix holds unscored rows.
	Scored int
}

// Match resolves both schemata to compiled profiles through the
// engine's profile cache, pairs the profiles and scores every element
// pair. This is the MATCH(S1, S2) operator of the literature;
// with a warm profile cache only the pair-dependent work (joint IDF +
// voting) runs.
func (e *Engine) Match(src, dst *schema.Schema) *Result {
	return e.MatchProfiles(e.Profile(src), e.Profile(dst))
}

// Profile returns the compiled profile of s from the engine's profile
// cache, compiling on a miss. Views paired from it describe s itself:
// its name, its elements and their IDs.
func (e *Engine) Profile(s *schema.Schema) *CompiledProfile {
	return e.profiles.Profile(s)
}

// MatchProfiles scores every element pair of two compiled profiles.
// Callers that hold profiles (the corpus top-k loop compiles its query
// schema exactly once and reuses it per candidate) skip straight to the
// pair-dependent work: PairProfiles, then MatchViews.
func (e *Engine) MatchProfiles(pa, pb *CompiledProfile) *Result {
	t0 := time.Now()
	sv, dv := PairProfiles(pa, pb)
	phasePreprocess.Observe(time.Since(t0).Seconds())
	return e.MatchViews(sv, dv)
}

// MatchViews scores element pairs of two preprocessed schemata: every
// pair in dense mode, the retrieved candidate pairs when sparse scoring is
// enabled and the match is large enough. Use this form to amortize
// preprocessing across repeated matches (for example the
// concept-at-a-time workflow, which re-matches sub-trees).
func (e *Engine) MatchViews(sv, dv *SchemaView) *Result {
	var m ScoreMatrix
	var scored int
	t0 := time.Now()
	if e.sparseActive(sv.Len(), dv.Len()) {
		cands, align := e.sparseCandidates(sv, dv, nil)
		sm := NewSparseMatrix(sv.Len(), dv.Len(), cands)
		e.scoreSparse(sv, dv, sm, align)
		m, scored = sm, sm.Pairs()
		matchesSparse.Inc()
		pairsScoredSparse.Add(uint64(scored))
	} else {
		// Dense scoring writes every cell, so the (possibly pooled) buffer
		// needs no zeroing.
		dm := newMatrixNoZero(sv.Len(), dv.Len())
		e.score(sv, dv, dm, nil)
		m, scored = dm, sv.Len()*dv.Len()
		matchesDense.Inc()
		pairsScoredDense.Add(uint64(scored))
	}
	phaseVote.Observe(time.Since(t0).Seconds())
	if e.propagationRounds > 0 {
		t0 = time.Now()
		for r := 0; r < e.propagationRounds; r++ {
			next := e.propagate(sv, dv, m)
			if next != m {
				// The pre-round matrix was created locally and is now fully
				// superseded; recycle dense buffers.
				if dm, ok := m.(*Matrix); ok {
					dm.Release()
				}
				m = next
			}
		}
		phasePropagate.Observe(time.Since(t0).Seconds())
	}
	return &Result{Src: sv, Dst: dv, Matrix: m, Scored: scored}
}

// Release returns the result's dense matrix buffer (if any) to the
// process-wide pool. Call it only when nothing retains the matrix or
// slices handed out by Matrix.Row — the selection functions
// (SelectThreshold, SelectGreedyOneToOne, ...) copy scores out, so results
// whose correspondences have been extracted are safe to release. Sparse matrices are not
// pooled; releasing a sparse-backed result is a no-op.
func (r *Result) Release() {
	if r == nil || r.Matrix == nil {
		return
	}
	if dm, ok := r.Matrix.(*Matrix); ok {
		dm.Release()
	}
	r.Matrix = nil
}

// sparseActive reports whether a rows×cols match runs sparse: sparse mode
// is configured, the match is at least the cutoff, and the budget actually
// prunes (a budget covering every target would just be dense with
// overhead).
func (e *Engine) sparseActive(rows, cols int) bool {
	if e.sparseBudget <= 0 || cols <= e.sparseBudget {
		return false
	}
	cutoff := e.sparseCutoff
	if cutoff <= 0 {
		cutoff = DefaultSparseCutoff
	}
	return rows*cols >= cutoff
}

// MatchCross scores only the cross product of the two given element
// subsets; every other cell reads zero. This is the residue-matching
// primitive of schema-evolution diffing: rename detection needs scores for
// (removed candidates × added candidates) only, a workload quadratic in
// the *churn*, not in the schema — on a 1000-element schema with 5% churn
// that is 2500 pairs instead of a million. The result is backed by a
// SparseMatrix holding exactly the cross product, so both the scoring
// time and the memory are proportional to the residue, never to
// rows×cols.
func (e *Engine) MatchCross(sv, dv *SchemaView, srcEls, dstEls []*schema.Element) *Result {
	cols := make([]int32, 0, len(dstEls))
	for _, el := range dstEls {
		cols = append(cols, int32(el.ID))
	}
	sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
	cands := make([][]int32, sv.Len())
	for _, el := range srcEls {
		cands[el.ID] = cols
	}
	m := NewSparseMatrix(sv.Len(), dv.Len(), cands)
	e.scoreSparse(sv, dv, m, nil)
	return &Result{Src: sv, Dst: dv, Matrix: m, Scored: m.Pairs()}
}

// MatchScoped scores only the pairs whose source element is in the given
// set; other rows are left empty. This is the incremental-matching
// primitive, the paper's sub-tree filter used as an *operation* ("match
// operations were rapid: typically between 10^4 and 10^5 matches were
// considered in each increment"): the concept-at-a-time workflow scores
// a concept's members, which need not form one sub-tree, and schema
// evolution re-matches only the dirty elements after a version bump.
// Structural propagation is not applied: it needs the full matrix, and
// partial rows would blend against unscored zeros, so scoped scores
// differ slightly from a full Match over the same pair.
//
// When sparse scoring is configured and the scoped workload
// (len(elements) × target size) clears the engine's cutoff, each
// in-scope element retrieves a bounded candidate set into a
// SparseMatrix; otherwise every in-scope row of a dense matrix is scored
// against the whole target.
func (e *Engine) MatchScoped(sv, dv *SchemaView, elements []*schema.Element) *Result {
	if !e.sparseActive(len(elements), dv.Len()) {
		m := NewMatrix(sv.Len(), dv.Len())
		rows := make([]int, 0, len(elements))
		for _, el := range elements {
			rows = append(rows, el.ID)
		}
		e.score(sv, dv, m, rows)
		return &Result{Src: sv, Dst: dv, Matrix: m, Scored: len(rows) * dv.Len()}
	}
	scope := make([]bool, sv.Len())
	for _, el := range elements {
		scope[el.ID] = true
	}
	cands, align := e.sparseCandidates(sv, dv, scope)
	sm := NewSparseMatrix(sv.Len(), dv.Len(), cands)
	e.scoreSparse(sv, dv, sm, align)
	return &Result{Src: sv, Dst: dv, Matrix: sm, Scored: sm.Pairs()}
}

// pairScratch is one worker's scoring state, handed to every Vote: the
// pairing being scored, whose document vectors the voters read; the
// hybrid name-similarity memo; and the recorded alignment total.
//
// The memo is keyed by name-shape pairs (see shapeOf), a flat
// open-addressed table (nameMemo). Shapes intern exact name token
// sequences process-wide, so the memoized metric is a pure function of
// the key, and the memo is pooled WITHOUT clearing — a warm pool
// carries memo hits across matches and schemas, until a GC empties the
// pool. Size is bounded at put-back. (Path votes are not memoized:
// paths are nearly unique per element, and their token signatures
// already prove most pairs 0 without a scan.)
//
// aligned and alignTotal carry the children-alignment total that sparse
// candidate generation recorded for the pair being scored to the
// structure voter (see scoreSparse). putScratch clears all but the memo.
type pairScratch struct {
	src, dst *SchemaView // the pairing; bound by getScratch

	hybrid nameMemo // name-shape pair -> hybrid name similarity

	aligned    bool    // alignTotal holds the current container pair's total
	alignTotal float64 // greedyAlignChildren's total for the current pair
}

func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

var scratchPool = sync.Pool{New: func() any { return new(pairScratch) }}

// getScratch takes a scratch from the pool, bound to the pairing (sv, dv).
func getScratch(sv, dv *SchemaView) *pairScratch {
	sc := scratchPool.Get().(*pairScratch)
	sc.src, sc.dst = sv, dv
	return sc
}

// putScratch returns sc to the pool, dropping a memo that reached its
// entry bound.
func putScratch(sc *pairScratch) {
	sc.reset()
	scratchPool.Put(sc)
}

// reset unbinds the pairing, so a pooled scratch keeps no profile
// alive, and drops a memo at its entry bound.
func (sc *pairScratch) reset() {
	sc.src, sc.dst = nil, nil
	sc.aligned = false
	if sc.hybrid.n >= maxMemoEntries {
		sc.hybrid = nameMemo{}
	}
}

// voteAll runs every voter on one pair into votes.
func (e *Engine) voteAll(srcView, dstView *ElementView, votes []Vote, sc *pairScratch) {
	for k, wv := range e.voters {
		votes[k] = wv.Voter.Vote(srcView, dstView, sc)
	}
}

// score fills the matrix for the given source rows (all rows when rows is
// nil), fanning the row loop out over the engine's workers.
func (e *Engine) score(sv, dv *SchemaView, m *Matrix, rows []int) {
	if rows == nil {
		rows = make([]int, sv.Len())
		for i := range rows {
			rows[i] = i
		}
	}
	e.forEachRowChunk(sv, dv, len(rows), func(lo, hi int, votes []Vote, weights []float64, sc *pairScratch) {
		for _, i := range rows[lo:hi] {
			srcView := sv.View(i)
			row := m.Row(i)
			for j := 0; j < dv.Len(); j++ {
				e.voteAll(srcView, dv.View(j), votes, sc)
				row[j] = e.merger.Merge(votes, weights)
			}
		}
	})
}

// forEachRowChunk is forEachChunk for the voting loops over the pairing
// (sv, dv): each worker also gets its own votes/weights buffers and a
// pooled pairScratch bound to the pairing. Both the dense and the
// sparse scorers fan out through here.
func (e *Engine) forEachRowChunk(sv, dv *SchemaView, n int, fn func(lo, hi int, votes []Vote, weights []float64, sc *pairScratch)) {
	e.forEachChunk(n, func(chunks iter.Seq2[int, int]) {
		votes := make([]Vote, len(e.voters))
		weights := make([]float64, len(e.voters))
		for i, wv := range e.voters {
			weights[i] = wv.Weight
		}
		sc := getScratch(sv, dv)
		for lo, hi := range chunks {
			fn(lo, hi, votes, weights, sc)
		}
		putScratch(sc)
	})
}

// forEachChunk runs worker once on each of the engine's workers,
// concurrently, and returns when all have returned. Each worker sets up
// its own scratch and ranges over chunks: contiguous [lo, hi) ranges of
// [0, n) that the workers claim from a shared cursor, so a worker that
// draws expensive rows (containers, say) does not hold up the others.
// Scoring, sparse candidate generation and propagation all fan out
// through here, so the chunking and clamping logic exists once.
func (e *Engine) forEachChunk(n int, worker func(chunks iter.Seq2[int, int])) {
	workers := min(max(e.workers, 1), n)
	if workers == 0 {
		return
	}
	// A few chunks per worker balance the load; more only add claims.
	grain := max(n/(workers*chunksPerWorker), 1)
	var cursor atomic.Int64
	chunks := func(yield func(lo, hi int) bool) {
		for {
			lo := int(cursor.Add(int64(grain))) - grain
			if lo >= n || !yield(lo, min(lo+grain, n)) {
				return
			}
		}
	}
	if workers == 1 {
		worker(chunks)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker(chunks)
		}()
	}
	wg.Wait()
}

// chunksPerWorker is how many chunks forEachChunk cuts per worker.
const chunksPerWorker = 8

// VoteRecord explains one voter's contribution to a pair's score.
type VoteRecord struct {
	Voter  string
	Weight float64
	Vote   Vote
}

// Explain recomputes the individual votes for one pair, for provenance
// displays and debugging. The merged score equals Matrix.At(src, dst) up to
// any structural propagation applied afterwards.
func (e *Engine) Explain(sv, dv *SchemaView, src, dst int) []VoteRecord {
	sc := getScratch(sv, dv)
	defer putScratch(sc)
	out := make([]VoteRecord, 0, len(e.voters))
	for _, wv := range e.voters {
		out = append(out, VoteRecord{
			Voter:  wv.Voter.Name(),
			Weight: wv.Weight,
			Vote:   wv.Voter.Vote(sv.View(src), dv.View(dst), sc),
		})
	}
	return out
}
