// Package search implements schema search, one of the paper's research
// directions: "Complementary search tools are needed to locate potential
// match candidates from a larger pool of schemata. ... A powerful way to
// search the MDR would be to simply use one's target schema as the 'query
// term'." The index ranks whole schemata (SearchText / SearchSchema) and
// schema fragments — top-level sub-trees — (SearchFragments), covering the
// paper's "a more sophisticated one could return relevant schema
// fragments".
//
// Ranking is BM25 over the same normalized token profiles the matcher and
// the clustering layer use. At MDR scale (tens of thousands of schemata)
// the index is a two-tier engine: an immutable flat segment — terms
// interned to dense IDs, delta-encoded posting arenas, per-block
// max-tf/min-length skip metadata — plus a small mutable tail absorbing
// incremental ingest. Queries score document-at-a-time with MaxScore and
// block-max pruning, returning provably the same top k (scores and
// deterministic order) as exhaustive accumulation while never
// decompressing dominated blocks. A background merge folds the tail into
// a new flat segment and reclaims dead documents, replacing the old
// rewrite-everything compaction heuristic. The index is safe for
// concurrent use.
package search

import (
	"math"
	"slices"
	"sync"
	"time"

	"harmony/internal/schema"
	"harmony/internal/text"
)

// BM25 parameters (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Result is one ranked hit.
type Result struct {
	// Schema is the schema name.
	Schema string
	// Fragment is the top-level element path for fragment hits, "" for
	// whole-schema hits.
	Fragment string
	// Score is the BM25 relevance score (higher is better).
	Score float64
	// Overlap is the overlap coefficient between the query's and the
	// hit's unique tokens, |Q∩D| / min(|Q|,|D|), in [0,1].
	Overlap float64
}

// QueryInfo describes what one search actually did — the observability
// the corpus blocker's budget tuning needs.
type QueryInfo struct {
	// Terms is the number of query terms that matched at least one live
	// document.
	Terms int `json:"terms"`
	// DocsScored counts documents scored exactly (tail + surviving flat
	// candidates).
	DocsScored int `json:"docsScored"`
	// BlocksDecoded and BlocksSkipped split the flat segment's posting
	// blocks touched by the query into decompressed vs pruned-on-metadata.
	BlocksDecoded int `json:"blocksDecoded"`
	BlocksSkipped int `json:"blocksSkipped"`
	// Terminated reports the scoring budget stopped the query before the
	// exact top k was guaranteed.
	Terminated bool `json:"terminated,omitempty"`
}

// tailPosting is one tail posting: an index into the space's tail slice
// plus the term frequency.
type tailPosting struct {
	doc int32
	tf  int32
}

// space is one posting space (whole schemata, or fragments): a flat
// segment plus the mutable tail. All fields are guarded by Index.mu.
type space struct {
	frag     bool
	flat     *segment
	tail     []*docHandle
	tailPost map[uint32][]tailPosting
	// alive/totalLen cover both tiers (live documents only).
	alive    int
	totalLen int64
	deadTail int
	// merging marks a background merge in flight; mergeDone closes when
	// it lands.
	merging   bool
	mergeDone chan struct{}
}

func newSpace(frag bool) space {
	return space{frag: frag, tailPost: make(map[uint32][]tailPosting)}
}

// add appends a handle to the tail. Caller holds the index lock.
func (sp *space) add(h *docHandle) {
	doc := int32(len(sp.tail))
	sp.tail = append(sp.tail, h)
	for i, t := range h.terms {
		sp.tailPost[t] = append(sp.tailPost[t], tailPosting{doc: doc, tf: h.tfs[i]})
	}
	sp.alive++
	sp.totalLen += int64(h.length)
}

// remove marks a handle dead in whichever tier holds it. Caller holds the
// index lock.
func (sp *space) remove(h *docHandle) {
	if h.dead {
		return
	}
	h.dead = true
	sp.alive--
	sp.totalLen -= int64(h.length)
	if h.inFlat {
		sp.flat.markDead(h)
	} else {
		sp.deadTail++
	}
}

// flatDocs returns the flat segment's total document count (live + dead).
func (sp *space) flatDocs() int {
	if sp.flat == nil {
		return 0
	}
	return len(sp.flat.docs)
}

func (sp *space) flatDead() int {
	if sp.flat == nil {
		return 0
	}
	return sp.flat.deadCnt
}

// mergeFloor is the smallest tail that triggers a background merge.
const mergeFloor = 512

// compactMinDead is the dead-document floor below which reclaiming is not
// worth a segment rebuild (unchanged from the old rewrite heuristic).
const compactMinDead = 64

// needsMerge reports whether the space should fold its tail into a new
// flat segment. The tail threshold scales with the flat size (max(floor,
// flat/8)) so merge work stays O(n log n) amortized as the corpus grows,
// and dead documents are bounded by max(compactMinDead, alive/4) — the
// same leak bound the old rewrite heuristic enforced, now off the request
// path.
func (sp *space) needsMerge(floor int) bool {
	if floor <= 0 {
		floor = mergeFloor
	}
	tailTrigger := sp.flatDocs() / 8
	if tailTrigger < floor {
		tailTrigger = floor
	}
	if len(sp.tail) >= tailTrigger {
		return true
	}
	dead := sp.flatDead() + sp.deadTail
	return dead >= compactMinDead && dead*4 >= sp.alive
}

// freeze snapshots the live handles (flat + tail prefix) for a merge and
// marks the space merging. Caller holds the index lock.
func (sp *space) freeze() (snap []*docHandle, tailEnd int) {
	n := 0
	if sp.flat != nil {
		n = len(sp.flat.docs)
	}
	snap = make([]*docHandle, 0, n+len(sp.tail))
	if sp.flat != nil {
		for _, h := range sp.flat.docs {
			if !h.dead {
				snap = append(snap, h)
			}
		}
	}
	tailEnd = len(sp.tail)
	for _, h := range sp.tail[:tailEnd] {
		if !h.dead {
			snap = append(snap, h)
		}
	}
	sp.merging = true
	sp.mergeDone = make(chan struct{})
	return snap, tailEnd
}

// install publishes a freshly built segment: deaths that raced the build
// are re-applied, the consumed tail prefix is retired and the tail
// posting map rebuilt over the remainder. Caller holds the index lock.
func (sp *space) install(seg *segment, tailEnd int) {
	for i, h := range seg.docs {
		h.flatID = int32(i)
		if h.dead {
			seg.markDead(h)
		} else {
			h.inFlat = true
		}
	}
	rest := sp.tail[tailEnd:]
	sp.tail = make([]*docHandle, len(rest))
	copy(sp.tail, rest)
	sp.tailPost = make(map[uint32][]tailPosting, len(sp.tailPost)/4+16)
	sp.deadTail = 0
	for doc, h := range sp.tail {
		if h.dead {
			sp.deadTail++
			continue
		}
		for i, t := range h.terms {
			sp.tailPost[t] = append(sp.tailPost[t], tailPosting{doc: int32(doc), tf: h.tfs[i]})
		}
	}
	sp.flat = seg
	sp.merging = false
	close(sp.mergeDone)
}

// Index is a two-tier inverted index over schema token profiles. The zero
// value is not usable; call NewIndex.
type Index struct {
	mu      sync.RWMutex
	schemas space
	frags   space
	// byName maps a schema name to its documents in both spaces.
	byName map[string]*nameDocs
	// tailMerge overrides the merge floor (0 = the default mergeFloor): a
	// space merges its tail into the flat segment once the tail reaches
	// max(tailMerge, flatDocs/8) documents. Tests set a small floor to
	// merge every few operations.
	tailMerge int

	// Lifetime counters, read via IndexStats.
	merges         int
	lastMergeNanos int64
	searches       uint64
	blocksDecoded  uint64
	blocksSkipped  uint64
	docsScored     uint64
}

type nameDocs struct {
	doc   *docHandle
	frags []*docHandle
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		schemas: newSpace(false),
		frags:   newSpace(true),
		byName:  make(map[string]*nameDocs),
	}
}

// handleFromIDs compiles pre-interned token IDs into a document handle:
// sorted unique, with term frequencies. ids is consumed — it is sorted
// in place and must not be shared.
func handleFromIDs(name, fragment string, ids []uint32) *docHandle {
	h := &docHandle{name: name, fragment: fragment, length: int32(len(ids))}
	if len(ids) == 0 {
		return h
	}
	// Sort and run-length count into the forward profile.
	sortUint32(ids)
	h.terms = make([]uint32, 0, len(ids))
	h.tfs = make([]int32, 0, len(ids))
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		h.terms = append(h.terms, ids[i])
		h.tfs = append(h.tfs, int32(j-i))
		i = j
	}
	return h
}

// PreparedDoc is one schema's index documents — the whole-schema handle
// plus one fragment handle per top-level element — compiled outside any
// lock by Prepare. Handles are single-use: add a PreparedDoc to exactly
// one index, exactly once.
type PreparedDoc struct {
	name  string
	doc   *docHandle
	frags []*docHandle
}

// Prepare tokenizes and interns a schema's index documents without
// touching the index. Bulk ingest workers prepare many schemas in
// parallel and hand them to AddPrepared under one lock acquisition.
//
// One walk covers both document levels: each element's interned token
// IDs (memoized in the text package) are appended to its root's
// fragment profile, and the whole-schema profile is the concatenation
// of the fragment profiles. The token multiset per handle is identical
// to lexing the schema and each subtree separately, so scores match
// the sequential Add path exactly.
func Prepare(s *schema.Schema) *PreparedDoc {
	roots := s.Roots()
	fdocs := make([]*docHandle, 0, len(roots))
	var stack []*schema.Element
	for _, root := range roots {
		rids := make([]uint32, 0, 4*root.SubtreeSize())
		// Explicit stack walk: Subtree() allocates a slice per node, and
		// the handle only needs the token multiset — visit order is
		// irrelevant because handleFromIDs sorts.
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			rids = append(rids, text.NormalizeNameIDs(e.Name)...)
			if e.Doc != "" {
				rids = append(rids, text.NormalizeDocIDs(e.Doc)...)
			}
			stack = append(stack, e.Children...)
		}
		fdocs = append(fdocs, handleFromIDs(s.Name, root.Path(), rids))
	}
	doc := mergeHandles(s.Name, fdocs)
	return &PreparedDoc{name: s.Name, doc: doc, frags: fdocs}
}

// mergeHandles builds the whole-schema handle by multiset-merging the
// fragment handles' already sorted run-length profiles, instead of
// re-sorting every token occurrence a second time. Handles are
// read-only once built, so the single-root common case shares the
// fragment's term arrays outright.
func mergeHandles(name string, frags []*docHandle) *docHandle {
	var length int32
	total := 0
	for _, f := range frags {
		length += f.length
		total += len(f.terms)
	}
	h := &docHandle{name: name, length: length}
	if total == 0 {
		return h
	}
	if len(frags) == 1 {
		h.terms, h.tfs = frags[0].terms, frags[0].tfs
		return h
	}
	// Pairwise cascade: merge adjacent profiles until one remains —
	// terms·log₂(k) work instead of a k-wide minimum scan per emitted
	// term.
	cur := make([]rlProfile, len(frags))
	for i, f := range frags {
		cur[i] = rlProfile{terms: f.terms, tfs: f.tfs}
	}
	for len(cur) > 1 {
		out := cur[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			out = append(out, mergeRL(cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			out = append(out, cur[len(cur)-1])
		}
		cur = out
	}
	h.terms, h.tfs = cur[0].terms, cur[0].tfs
	return h
}

// rlProfile is one sorted run-length term profile mid-merge.
type rlProfile struct {
	terms []uint32
	tfs   []int32
}

// mergeRL multiset-merges two sorted run-length profiles.
func mergeRL(a, b rlProfile) rlProfile {
	terms := make([]uint32, 0, len(a.terms)+len(b.terms))
	tfs := make([]int32, 0, len(a.terms)+len(b.terms))
	i, j := 0, 0
	for i < len(a.terms) && j < len(b.terms) {
		switch {
		case a.terms[i] < b.terms[j]:
			terms, tfs = append(terms, a.terms[i]), append(tfs, a.tfs[i])
			i++
		case a.terms[i] > b.terms[j]:
			terms, tfs = append(terms, b.terms[j]), append(tfs, b.tfs[j])
			j++
		default:
			terms, tfs = append(terms, a.terms[i]), append(tfs, a.tfs[i]+b.tfs[j])
			i, j = i+1, j+1
		}
	}
	terms = append(terms, a.terms[i:]...)
	tfs = append(tfs, a.tfs[i:]...)
	terms = append(terms, b.terms[j:]...)
	tfs = append(tfs, b.tfs[j:]...)
	return rlProfile{terms: terms, tfs: tfs}
}

// Add indexes a schema: one whole-schema document plus one fragment
// document per top-level element. Re-adding a name replaces the previous
// version.
func (ix *Index) Add(s *schema.Schema) {
	// Tokenize and intern outside the lock: profile compilation is the
	// expensive part of ingest and needs no index state.
	pd := Prepare(s)
	ix.mu.Lock()
	ix.addPreparedLocked(pd)
	ix.maybeMergeLocked(&ix.schemas)
	ix.maybeMergeLocked(&ix.frags)
	ix.mu.Unlock()
}

// AddDoc indexes one pre-compiled document with the usual merge checks —
// Add for callers that already ran Prepare outside their own locks.
func (ix *Index) AddDoc(pd *PreparedDoc) {
	ix.mu.Lock()
	ix.addPreparedLocked(pd)
	ix.maybeMergeLocked(&ix.schemas)
	ix.maybeMergeLocked(&ix.frags)
	ix.mu.Unlock()
}

// AddPrepared indexes pre-compiled documents under one lock acquisition,
// with merge checks deferred: a bulk ingest stream calls MaybeMerge once
// when it ends instead of paying a merge decision (and possibly a merge
// kickoff) per schema mid-stream.
func (ix *Index) AddPrepared(docs []*PreparedDoc) {
	ix.mu.Lock()
	for _, pd := range docs {
		if pd != nil {
			ix.addPreparedLocked(pd)
		}
	}
	ix.mu.Unlock()
}

// Reset builds a replacement of the index's entire contents from docs,
// which must name distinct schemata, and returns swap, which installs it.
// Both flat segments are built at once, concurrently and without the
// index lock; swap takes the lock only to drop the previous documents
// and segments and put the new ones in place, with empty tails. A
// registry loading a snapshot calls swap under its own lock, so readers
// see its old state or its new one, never a mix; the index object itself
// stays, because searches hold it without the registry's lock. Lifetime
// counters and the merge floor are kept.
func (ix *Index) Reset(docs []*PreparedDoc) (swap func()) {
	byName := make(map[string]*nameDocs, len(docs))
	var schemaDocs, fragDocs []*docHandle
	for _, pd := range docs {
		byName[pd.name] = &nameDocs{doc: pd.doc, frags: pd.frags}
		schemaDocs = append(schemaDocs, pd.doc)
		fragDocs = append(fragDocs, pd.frags...)
	}
	t0 := time.Now()
	var frags space
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frags = flatSpace(true, fragDocs)
	}()
	schemas := flatSpace(false, schemaDocs)
	wg.Wait()
	elapsed := time.Since(t0).Nanoseconds()
	return func() {
		ix.mu.Lock()
		// An in-flight merge would install into the space being dropped.
		for ix.schemas.merging || ix.frags.merging {
			ix.mu.Unlock()
			ix.quiesce()
			ix.mu.Lock()
		}
		ix.schemas, ix.frags, ix.byName = schemas, frags, byName
		for _, sp := range []*space{&ix.schemas, &ix.frags} {
			if sp.flat != nil {
				ix.merges++
				ix.lastMergeNanos = elapsed
			}
		}
		ix.mu.Unlock()
	}
}

// flatSpace returns a space whose flat segment holds handles, in order,
// and whose tail is empty.
func flatSpace(frag bool, handles []*docHandle) space {
	sp := newSpace(frag)
	if len(handles) == 0 {
		return sp
	}
	t0 := time.Now()
	sp.flat = buildSegment(handles)
	for i, h := range handles {
		h.flatID, h.inFlat = int32(i), true
		sp.alive++
		sp.totalLen += int64(h.length)
	}
	obsMergeDone(time.Since(t0))
	return sp
}

func (ix *Index) addPreparedLocked(pd *PreparedDoc) {
	ix.removeLocked(pd.name)
	ix.schemas.add(pd.doc)
	for _, fd := range pd.frags {
		ix.frags.add(fd)
	}
	ix.byName[pd.name] = &nameDocs{doc: pd.doc, frags: pd.frags}
}

// MaybeMerge runs the merge checks AddPrepared deferred, kicking off a
// background merge for any space past its threshold.
func (ix *Index) MaybeMerge() {
	ix.mu.Lock()
	ix.maybeMergeLocked(&ix.schemas)
	ix.maybeMergeLocked(&ix.frags)
	ix.mu.Unlock()
}

// Remove drops a schema (and its fragments) from the index. Removing an
// unknown name is a no-op.
func (ix *Index) Remove(name string) {
	ix.mu.Lock()
	ix.removeLocked(name)
	ix.maybeMergeLocked(&ix.schemas)
	ix.maybeMergeLocked(&ix.frags)
	ix.mu.Unlock()
}

func (ix *Index) removeLocked(name string) {
	nd, ok := ix.byName[name]
	if !ok {
		return
	}
	ix.schemas.remove(nd.doc)
	for _, fd := range nd.frags {
		ix.frags.remove(fd)
	}
	delete(ix.byName, name)
}

// maybeMergeLocked kicks off a background merge when the space needs one
// and none is in flight. Caller holds the write lock.
func (ix *Index) maybeMergeLocked(sp *space) {
	if sp.merging || !sp.needsMerge(ix.tailMerge) {
		return
	}
	snap, tailEnd := sp.freeze()
	go ix.runMerge(sp, snap, tailEnd)
}

// runMerge builds the segment off the request path and installs it.
func (ix *Index) runMerge(sp *space, snap []*docHandle, tailEnd int) {
	t0 := time.Now()
	seg := buildSegment(snap)
	ix.mu.Lock()
	sp.install(seg, tailEnd)
	ix.merges++
	ix.lastMergeNanos = time.Since(t0).Nanoseconds()
	// The tail may have outgrown the threshold again while the merge ran.
	ix.maybeMergeLocked(sp)
	ix.mu.Unlock()
	obsMergeDone(time.Since(t0))
}

// Compact folds each space's tail and dead documents into a new flat
// segment and waits for it: one segment build per space that needs one,
// the two spaces building concurrently off the index lock, so searches
// proceed meanwhile. With no concurrent writer the index returns fully
// merged — every live document in a flat segment, empty tails, no dead
// documents. A store calls it once when it has admitted a whole snapshot
// and its log; routine reclamation happens in the background.
func (ix *Index) Compact() {
	ix.quiesce()
	ix.mu.Lock()
	var wg sync.WaitGroup
	for _, sp := range []*space{&ix.schemas, &ix.frags} {
		if sp.merging || len(sp.tail) == 0 && sp.flatDead() == 0 {
			continue
		}
		snap, tailEnd := sp.freeze()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix.runMerge(sp, snap, tailEnd)
		}()
	}
	ix.mu.Unlock()
	wg.Wait()
}

// quiesce waits for in-flight merges to land.
func (ix *Index) quiesce() {
	for {
		ix.mu.RLock()
		ch1, ch2 := ix.schemas.mergeDone, ix.frags.mergeDone
		busy := ix.schemas.merging || ix.frags.merging
		ix.mu.RUnlock()
		if !busy {
			return
		}
		if ch1 != nil {
			<-ch1
		}
		if ch2 != nil {
			<-ch2
		}
	}
}

// Stats describes the index's two-tier occupancy and lifetime activity.
type Stats struct {
	Schemas       int `json:"schemas"`
	DeadSchemas   int `json:"deadSchemas"`
	Fragments     int `json:"fragments"`
	DeadFragments int `json:"deadFragments"`
	Terms         int `json:"terms"`
	Postings      int `json:"postings"`
	// Two-tier occupancy: documents resident in the flat segments vs the
	// mutable tails (live + dead).
	FlatSchemas   int `json:"flatSchemas"`
	TailSchemas   int `json:"tailSchemas"`
	FlatFragments int `json:"flatFragments"`
	TailFragments int `json:"tailFragments"`
	// ArenaBytes is the compressed posting arena footprint.
	ArenaBytes int `json:"arenaBytes"`
	// Merges counts segment builds since start; LastMergeMillis is the
	// most recent build's wall time.
	Merges          int   `json:"merges"`
	LastMergeMillis int64 `json:"lastMergeMillis"`
	// Searches and the block/doc counters accumulate over the index's
	// lifetime; BlocksSkipped are posting blocks pruned on metadata
	// without decompression.
	Searches      uint64 `json:"searches"`
	BlocksDecoded uint64 `json:"blocksDecoded"`
	BlocksSkipped uint64 `json:"blocksSkipped"`
	DocsScored    uint64 `json:"docsScored"`
}

// IndexStats returns a snapshot of the index occupancy.
func (ix *Index) IndexStats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{
		Schemas:         ix.schemas.alive,
		DeadSchemas:     ix.schemas.flatDead() + ix.schemas.deadTail,
		Fragments:       ix.frags.alive,
		DeadFragments:   ix.frags.flatDead() + ix.frags.deadTail,
		FlatSchemas:     ix.schemas.flatDocs(),
		TailSchemas:     len(ix.schemas.tail),
		FlatFragments:   ix.frags.flatDocs(),
		TailFragments:   len(ix.frags.tail),
		Merges:          ix.merges,
		LastMergeMillis: ix.lastMergeNanos / 1e6,
		Searches:        ix.searches,
		BlocksDecoded:   ix.blocksDecoded,
		BlocksSkipped:   ix.blocksSkipped,
		DocsScored:      ix.docsScored,
	}
	for _, sp := range []*space{&ix.schemas, &ix.frags} {
		if sp.flat != nil {
			st.Terms += len(sp.flat.terms)
			st.Postings += sp.flat.postings
			st.ArenaBytes += len(sp.flat.arena)
		}
		st.Terms += len(sp.tailPost)
		for _, pl := range sp.tailPost {
			st.Postings += len(pl)
		}
	}
	return st
}

// Len returns the number of indexed schemata.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.schemas.alive
}

// SearchText ranks schemata against a free-text query ("blood test" — the
// paper's CIO asking which data sources contain the concept).
func (ix *Index) SearchText(query string, k int) []Result {
	return ix.SearchTokens(text.NormalizeDoc(query), k)
}

// SearchSchema uses a whole schema as the query term, the paper's
// query-by-schema idiom for the DoD Metadata Registry.
func (ix *Index) SearchSchema(q *schema.Schema, k int) []Result {
	return ix.SearchTokens(SchemaProfile(q), k)
}

// SearchTokens ranks schemata against pre-normalized query tokens.
func (ix *Index) SearchTokens(tokens []string, k int) []Result {
	res, _ := ix.searchSpace(&ix.schemas, tokens, k, 0, false)
	return res
}

// SearchSchemaInfo is SearchSchema with a document-scoring budget and
// execution stats: the corpus blocker's entry point. docBudget > 0 stops
// scoring after that many exactly scored documents (the surviving top k
// is then best-effort); 0 means exact.
func (ix *Index) SearchSchemaInfo(q *schema.Schema, k, docBudget int) ([]Result, QueryInfo) {
	return ix.searchSpace(&ix.schemas, SchemaProfile(q), k, docBudget, false)
}

// SearchTokensExhaustive scores with full-corpus term-at-a-time
// accumulation — the pre-block-max reference path. It returns exactly the
// same results as SearchTokens; tests and experiments use it as the
// correctness oracle and speed baseline.
func (ix *Index) SearchTokensExhaustive(tokens []string, k int) []Result {
	res, _ := ix.searchSpace(&ix.schemas, tokens, k, 0, true)
	return res
}

// SearchSchemaExhaustive is SearchSchema through the exhaustive
// reference path — same tokens, same results, no pruning. Experiments
// use it as the speed baseline for the block-max engine.
func (ix *Index) SearchSchemaExhaustive(q *schema.Schema, k int) []Result {
	res, _ := ix.searchSpace(&ix.schemas, SchemaProfile(q), k, 0, true)
	return res
}

// SearchFragments ranks top-level sub-trees (tables, complex types)
// against a free-text query, returning schema + fragment path.
func (ix *Index) SearchFragments(query string, k int) []Result {
	res, _ := ix.searchSpace(&ix.frags, text.NormalizeDoc(query), k, 0, false)
	return res
}

func (ix *Index) searchSpace(sp *space, tokens []string, k, docBudget int, exhaustive bool) ([]Result, QueryInfo) {
	var info QueryInfo
	ix.mu.RLock()
	res := sp.search(tokens, k, docBudget, exhaustive, &info)
	ix.mu.RUnlock()
	ix.mu.Lock()
	ix.searches++
	ix.blocksDecoded += uint64(info.BlocksDecoded)
	ix.blocksSkipped += uint64(info.BlocksSkipped)
	ix.docsScored += uint64(info.DocsScored)
	ix.mu.Unlock()
	obsSearchDone(&info)
	return res, info
}

func bm25IDF(n, df int) float64 {
	// ln(1 + (N - df + 0.5)/(df + 0.5))
	return math.Log1p((float64(n) - float64(df) + 0.5) / (float64(df) + 0.5))
}

// sortUint32 sorts in place (tight loop-friendly wrapper).
func sortUint32(a []uint32) {
	if len(a) < 2 {
		return
	}
	// Insertion sort below the threshold where pdqsort's overhead shows.
	if len(a) <= 24 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	slices.Sort(a)
}

// SchemaProfile returns a schema's token profile: the normalized name
// tokens of every element plus its normalized documentation tokens. The
// index blocks schema queries on it, and cluster.QuickDistances weighs
// schemata by it.
func SchemaProfile(s *schema.Schema) []string {
	var toks []string
	for _, e := range s.Elements() {
		toks = append(toks, text.NormalizeName(e.Name)...)
		if e.Doc != "" {
			toks = append(toks, text.NormalizeDoc(e.Doc)...)
		}
	}
	return toks
}
