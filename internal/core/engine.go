package core

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"harmony/internal/schema"
)

// Engine is a configured Harmony match engine: an ordered set of weighted
// voters, a merger, and execution options. The zero value is not usable;
// construct engines with NewEngine or a preset (PresetHarmony and friends).
//
// Engines are stateless across matches and safe for concurrent use by
// multiple goroutines.
type Engine struct {
	voters  []WeightedVoter
	merger  Merger
	workers int

	// ctxVoters caches, per voter slot, the contextVoter fast path (nil
	// for voters that don't implement it); resolved once at construction
	// so the inner pair loop pays no type assertions.
	ctxVoters []contextVoter

	// profiles, when set, caches compiled schema profiles by fingerprint
	// so repeated matches over the same schema content skip linguistic
	// preprocessing entirely.
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

// WithProfileCache attaches a compiled-profile cache: Match and Profile
// resolve schemas through it instead of recompiling. A single cache is
// typically shared by every engine preset serving one registry.
func WithProfileCache(pc *ProfileCache) Option {
	return func(e *Engine) {
		e.profiles = pc
	}
}

// NewEngine builds an engine from weighted voters and a merger.
func NewEngine(voters []WeightedVoter, merger Merger, opts ...Option) *Engine {
	e := &Engine{
		voters:  voters,
		merger:  merger,
		workers: runtime.GOMAXPROCS(0),
	}
	e.ctxVoters = make([]contextVoter, len(voters))
	for i, wv := range voters {
		if cv, ok := wv.Voter.(contextVoter); ok {
			e.ctxVoters[i] = cv
		}
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// HasProfileCache reports whether a compiled-profile cache is attached,
// so callers that batch many matches (the corpus pipeline) can supply a
// fallback cache for bare engines instead of recompiling per pair.
func (e *Engine) HasProfileCache() bool {
	return e.profiles != nil
}

// WithOptions returns a copy of the engine with further options applied.
// The copy shares the (immutable) voter set and merger, so deriving a
// sparse or differently-parallel engine from a preset is cheap.
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
}

// Match resolves both schemata to compiled profiles (through the
// profile cache when one is attached), materializes the pair views and
// scores every element pair. This is the MATCH(S1, S2) operator of the
// literature; with a warm profile cache only the pair-dependent work
// (joint IDF + voting) runs.
func (e *Engine) Match(src, dst *schema.Schema) *Result {
	return e.MatchProfiles(e.Profile(src), e.Profile(dst))
}

// Profile returns the compiled profile of s: from the engine's profile
// cache when one is attached (compiling on miss), otherwise compiled
// fresh.
func (e *Engine) Profile(s *schema.Schema) *CompiledProfile {
	if e.profiles != nil {
		return e.profiles.Profile(s)
	}
	t0 := time.Now()
	p := CompileSchema(s)
	phaseCompile.Observe(time.Since(t0).Seconds())
	return p
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
	t0 := time.Now()
	if e.sparseActive(sv.Len(), dv.Len()) {
		cands := sparseCandidates(sv, dv, e.sparseBudget)
		sm := NewSparseMatrix(sv.Len(), dv.Len(), cands)
		e.scoreSparse(sv, dv, sm)
		m = sm
		matchesSparse.Inc()
		var scored int
		for _, row := range cands {
			scored += len(row)
		}
		pairsScoredSparse.Add(uint64(scored))
	} else {
		// Dense scoring writes every cell, so the (possibly pooled) buffer
		// needs no zeroing.
		dm := newMatrixNoZero(sv.Len(), dv.Len())
		e.score(sv, dv, dm, nil)
		m = dm
		matchesDense.Inc()
		pairsScoredDense.Add(uint64(sv.Len() * dv.Len()))
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
	return &Result{Src: sv, Dst: dv, Matrix: m}
}

// Release returns the result's dense matrix buffer (if any) to the
// process-wide pool. Call it only when nothing retains the matrix or
// slices handed out by Matrix.Row — selection methods (Above,
// BestPerSource, ...) copy scores out, so results whose correspondences
// have been extracted are safe to release. Sparse matrices are not
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

// MatchSubtree scores only the pairs whose source element lies in the
// sub-tree rooted at root (an element of sv's schema) against every target
// element — the paper's sub-tree filter used as an *operation*: "match
// operations were rapid: typically between 10^4 and 10^5 matches were
// considered in each increment". Rows outside the sub-tree are left zero.
func (e *Engine) MatchSubtree(sv, dv *SchemaView, root *schema.Element) *Result {
	return e.MatchElements(sv, dv, root.Subtree())
}

// MatchElements scores only the pairs whose source element is in the given
// set against every target element; other rows are left zero. This is the
// incremental-matching primitive behind the concept-at-a-time workflow,
// where a concept's members need not form a single sub-tree. Structural
// propagation is not applied: it needs the full matrix, and partial rows
// would blend against unscored zeros. Incremental scores therefore differ
// slightly from a full Match over the same pair.
func (e *Engine) MatchElements(sv, dv *SchemaView, elements []*schema.Element) *Result {
	m := NewMatrix(sv.Len(), dv.Len())
	rows := make([]int, 0, len(elements))
	for _, el := range elements {
		rows = append(rows, el.ID)
	}
	e.score(sv, dv, m, rows)
	return &Result{Src: sv, Dst: dv, Matrix: m}
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
	e.scoreSparse(sv, dv, m)
	return &Result{Src: sv, Dst: dv, Matrix: m}
}

// MatchScoped scores only the pairs whose source element is in the given
// set, like MatchElements, but routes through the sparse candidate-pair
// path when sparse scoring is configured and the scoped workload
// (len(elements) × target size) clears the engine's cutoff: each in-scope
// element retrieves a bounded candidate set instead of scoring the full
// target row. This is the incremental re-match primitive of schema
// evolution — after a version bump only the dirty elements are in scope,
// so the run costs a fraction of a full rematch. Out-of-scope rows are left
// empty in either representation.
func (e *Engine) MatchScoped(sv, dv *SchemaView, elements []*schema.Element) *Result {
	if !e.sparseActive(len(elements), dv.Len()) {
		return e.MatchElements(sv, dv, elements)
	}
	scope := make([]bool, sv.Len())
	for _, el := range elements {
		scope[el.ID] = true
	}
	sm := NewSparseMatrix(sv.Len(), dv.Len(), sparseCandidatesScoped(sv, dv, e.sparseBudget, scope))
	e.scoreSparse(sv, dv, sm)
	return &Result{Src: sv, Dst: dv, Matrix: sm}
}

// pairScratch is per-worker scoring scratch: the hybrid name-similarity
// memo keyed by name-shape pairs (see shapeOf). Shapes intern exact name
// token sequences process-wide, so the memoized metric is a pure
// function of the key, and scratches are pooled WITHOUT clearing — a
// warm pool carries memo hits across matches and schemas. Size is
// bounded at put-back. (Path votes are cheap enough that memoizing them
// through a hash map costs about as much as recomputing, and paths are
// nearly unique per element, so they are always computed directly.)
type pairScratch struct {
	hybrid map[uint64]float64 // name-shape pair -> hybrid name similarity
}

// maxMemoEntries bounds the memo table (~2^19 entries ≈ 8 MB);
// inserts stop at the cap and oversized tables are dropped at put-back.
const maxMemoEntries = 1 << 19

func pairKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

var scratchPool = sync.Pool{New: func() any {
	return &pairScratch{
		hybrid: make(map[uint64]float64, 1024),
	}
}}

func putScratch(sc *pairScratch) {
	if len(sc.hybrid) >= maxMemoEntries {
		sc.hybrid = make(map[uint64]float64, 1024)
	}
	scratchPool.Put(sc)
}

// voteAll runs every voter on one pair into votes, dispatching through
// the contextVoter fast path where available.
func (e *Engine) voteAll(srcView, dstView *ElementView, votes []Vote, sc *pairScratch) {
	for k := range e.voters {
		if cv := e.ctxVoters[k]; cv != nil {
			votes[k] = cv.voteCtx(srcView, dstView, sc)
		} else {
			votes[k] = e.voters[k].Voter.Vote(srcView, dstView)
		}
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
	e.forEachRowChunk(len(rows), func(lo, hi int, votes []Vote, weights []float64, sc *pairScratch) {
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

// forEachRowChunk splits the index range [0, n) into one contiguous chunk
// per engine worker and runs fn concurrently, handing each worker its own
// votes/weights buffers and a pooled pairScratch. Both the dense and the
// sparse scorers fan out through here so the chunking and clamping logic
// exists once.
func (e *Engine) forEachRowChunk(n int, fn func(lo, hi int, votes []Vote, weights []float64, sc *pairScratch)) {
	workers := e.workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 0 {
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			votes := make([]Vote, len(e.voters))
			weights := make([]float64, len(e.voters))
			for i, wv := range e.voters {
				weights[i] = wv.Weight
			}
			sc := scratchPool.Get().(*pairScratch)
			fn(lo, hi, votes, weights, sc)
			putScratch(sc)
		}(lo, hi)
	}
	wg.Wait()
}

// propagate runs one round of structural propagation and returns the
// blended matrix: container pair scores are blended with the average of
// their children's best mutual scores, and leaf pair scores with their
// parents' pair score. All reads come from the pre-round matrix, so the
// two passes stay order-independent. Only cells the representation stores
// are visited — for a sparse matrix that is exactly the candidate set
// (structural expansion guarantees every candidate pair's parents are
// candidates too, so the parent reads hit stored cells).
func (e *Engine) propagate(sv, dv *SchemaView, m ScoreMatrix) ScoreMatrix {
	alpha := e.propagationAlpha
	if alpha <= 0 {
		return m
	}
	next := m.Clone()
	var used []bool // childrenAgreement scratch, reused across pairs
	for i := 0; i < sv.Len(); i++ {
		a := sv.View(i).El
		if a.IsLeaf() {
			if a.Parent == nil {
				continue
			}
			pi := a.Parent.ID
			m.ForRow(i, func(j int, s float64) bool {
				b := dv.View(j).El
				if !b.IsLeaf() || b.Parent == nil {
					return true
				}
				parentScore := m.At(pi, b.Parent.ID)
				next.Set(i, j, clampScore((1-alpha)*s+alpha*parentScore))
				return true
			})
			continue
		}
		m.ForRow(i, func(j int, s float64) bool {
			b := dv.View(j).El
			if b.IsLeaf() {
				return true
			}
			if n := len(b.Children); cap(used) < n {
				used = make([]bool, n)
			}
			agg := childrenAgreement(a, b, m, used[:len(b.Children)])
			next.Set(i, j, clampScore((1-alpha)*s+alpha*agg))
			return true
		})
	}
	return next
}

// childrenAgreement computes the greedy one-to-one alignment quality of two
// containers' children under the current matrix scores, normalized over the
// smaller child set.
// used is caller-provided scratch of len(b.Children); it is reset here.
func childrenAgreement(a, b *schema.Element, m ScoreMatrix, used []bool) float64 {
	ca, cb := a.Children, b.Children
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	for i := range used {
		used[i] = false
	}
	var total float64
	for _, x := range ca {
		best, bestJ := 0.0, -1
		for j, y := range cb {
			if used[j] {
				continue
			}
			if s := m.At(x.ID, y.ID); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 {
			used[bestJ] = true
			total += best
		}
	}
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	return total / float64(n)
}

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
	out := make([]VoteRecord, 0, len(e.voters))
	for _, wv := range e.voters {
		out = append(out, VoteRecord{
			Voter:  wv.Voter.Name(),
			Weight: wv.Weight,
			Vote:   wv.Voter.Vote(sv.View(src), dv.View(dst)),
		})
	}
	return out
}
