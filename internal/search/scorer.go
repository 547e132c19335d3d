package search

import (
	"sort"
	"sync"

	"harmony/internal/text"
)

// The scorer evaluates one query against one posting space in two parts:
// the small mutable tail is scored exhaustively (it is bounded by the
// merge threshold), and the flat segment is scored document-at-a-time
// with MaxScore pruning over the per-block upper bounds. Both paths — and
// the exhaustive reference scorer — compute every term contribution with
// the same contrib() expression and fold a document's contributions in
// ascending term order, so the fast path returns bit-identical scores to
// the exhaustive one.

// exactnessSlack is the relative margin applied to the pruning threshold.
// Upper bounds and running partial sums are computed with floating-point
// operations whose rounding is not perfectly monotonic across operand
// reassociation; the slack absorbs those last-ulp effects so pruning can
// never drop a document whose exact score would enter the top k. The
// property tests in exact_test.go hammer this with randomized corpora.
const exactnessSlack = 1e-9

// contrib computes one term's BM25 contribution to one document with a
// fixed operation order. Every scoring path (block-max, exhaustive, tail,
// and the test reference) must go through this function: bit-identical
// top-k depends on identical rounding.
func contrib(idf, qw, tf, docLen, avgLen float64) float64 {
	norm := tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*docLen/avgLen))
	return idf * norm * qw
}

// queryTerm is one resolved query term in canonical (ascending term ID)
// order.
type queryTerm struct {
	id    uint32
	qw    float64 // saturating query term-frequency weight
	idf   float64
	ub    float64 // flat-segment score upper bound ((idf*maxNorm)*qw)
	maxTF float64 // largest term frequency in any flat block
	tm    *termMeta
}

// buildQuery resolves normalized query tokens against one space: interned
// IDs, live document frequencies, IDF and the flat-segment upper bounds.
// Terms that appear in no live document are dropped. distinct counts the
// query's unique tokens, dropped ones included: the |Q| of each hit's
// overlap coefficient. Caller holds the index read lock.
func (sp *space) buildQuery(tokens []string) (qts []queryTerm, distinct int) {
	if sp.alive == 0 || len(tokens) == 0 {
		return nil, 0
	}
	counts := make(map[uint32]int, len(tokens))
	var unseen map[string]bool
	for _, tok := range tokens {
		if id, ok := text.LookupInterned(tok); ok {
			counts[id]++
			continue
		}
		// Tokens never interned were never indexed anywhere: they score
		// nothing, but they are still part of the query.
		if unseen == nil {
			unseen = make(map[string]bool)
		}
		unseen[tok] = true
	}
	distinct = len(counts) + len(unseen)
	if len(counts) == 0 {
		return nil, distinct
	}
	qts = make([]queryTerm, 0, len(counts))
	for id, qtf := range counts {
		qts = append(qts, queryTerm{id: id, qw: 1 + 0.2*float64(qtf-1)})
	}
	sort.Slice(qts, func(i, j int) bool { return qts[i].id < qts[j].id })

	avgLen := sp.avgLen()
	out := qts[:0]
	for _, qt := range qts {
		var df int32
		if sp.flat != nil {
			qt.tm = sp.flat.findTerm(qt.id)
			df += sp.flat.liveDF(qt.tm)
		}
		df += sp.tailDF(qt.id)
		if df <= 0 {
			continue
		}
		qt.idf = bm25IDF(sp.alive, int(df))
		if qt.tm != nil {
			qt.ub, qt.maxTF = flatTermUB(sp.flat, qt.tm, qt.idf, qt.qw, avgLen)
		}
		out = append(out, qt)
	}
	return out, distinct
}

// flatTermUB computes a term's score upper bound over the flat segment
// from its block metadata: the tightest (maxTF, minLen) pair of any block,
// run through the same contrib() expression actual scoring uses, so the
// bound dominates every real contribution. It also returns the largest
// term frequency in any block, which the per-document length-aware bound
// needs.
func flatTermUB(seg *segment, tm *termMeta, idf, qw, avgLen float64) (float64, float64) {
	var ub float64
	var maxTF uint32
	for _, blk := range seg.blocks[tm.blockO : tm.blockO+tm.blockN] {
		if b := contrib(idf, qw, float64(blk.maxTF), float64(blk.minLen), avgLen); b > ub {
			ub = b
		}
		if blk.maxTF > maxTF {
			maxTF = blk.maxTF
		}
	}
	return ub, float64(maxTF)
}

// avgLen is the mean live document length of the space.
func (sp *space) avgLen() float64 {
	if sp.alive == 0 {
		return 1
	}
	a := float64(sp.totalLen) / float64(sp.alive)
	if a == 0 {
		return 1
	}
	return a
}

// tailDF counts live tail documents containing the term.
func (sp *space) tailDF(id uint32) int32 {
	var df int32
	for _, p := range sp.tailPost[id] {
		if !sp.tail[p.doc].dead {
			df++
		}
	}
	return df
}

// --- top-k collection ------------------------------------------------------

// hit is one scored document in the heap.
type hit struct {
	score float64
	h     *docHandle
}

// betterHit orders hits best-first: score descending, then name and
// fragment ascending — the deterministic tie-break every scoring path and
// the reference scorer share.
func betterHit(a, b hit) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.h.name != b.h.name {
		return a.h.name < b.h.name
	}
	return a.h.fragment < b.h.fragment
}

// topK is an allocation-free bounded min-heap: the root is the worst
// retained hit, so threshold() is O(1) for the MaxScore pruning loop.
type topK struct {
	k    int
	hits []hit
}

func newTopK(k int) *topK {
	return &topK{k: k, hits: make([]hit, 0, k)}
}

// threshold returns the score a new hit must reach to enter the heap, or
// -1 while the heap still has room (all BM25 scores are positive).
func (t *topK) threshold() float64 {
	if len(t.hits) < t.k {
		return -1
	}
	return t.hits[0].score
}

// offer inserts a hit, displacing the worst retained one when full. The
// comparison is exact (ties resolved by name), never slack-adjusted.
func (t *topK) offer(score float64, h *docHandle) {
	nh := hit{score: score, h: h}
	if len(t.hits) < t.k {
		t.hits = append(t.hits, nh)
		// Sift up.
		i := len(t.hits) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !betterHit(t.hits[parent], t.hits[i]) {
				break
			}
			t.hits[parent], t.hits[i] = t.hits[i], t.hits[parent]
			i = parent
		}
		return
	}
	if !betterHit(nh, t.hits[0]) {
		return
	}
	t.hits[0] = nh
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(t.hits) && betterHit(t.hits[worst], t.hits[l]) {
			worst = l
		}
		if r < len(t.hits) && betterHit(t.hits[worst], t.hits[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.hits[i], t.hits[worst] = t.hits[worst], t.hits[i]
		i = worst
	}
}

// results drains the heap into best-first Results, each with its overlap
// against the query (qts, distinct as buildQuery returned them). Returns
// nil when empty (the historical API contract).
func (t *topK) results(frag bool, qts []queryTerm, distinct int) []Result {
	if len(t.hits) == 0 {
		return nil
	}
	sort.Slice(t.hits, func(i, j int) bool { return betterHit(t.hits[i], t.hits[j]) })
	out := make([]Result, len(t.hits))
	for i, h := range t.hits {
		out[i] = Result{Schema: h.h.name, Score: h.score, Overlap: overlap(qts, distinct, h.h.terms)}
		if frag {
			out[i].Fragment = h.h.fragment
		}
	}
	return out
}

// overlap is the overlap coefficient |Q∩D| / min(|Q|,|D|) over unique
// tokens, between a query of distinct tokens and a document's forward
// profile. Every term of a live document has a live document frequency,
// so the resolved query terms qts are the whole of Q that D can share.
func overlap(qts []queryTerm, distinct int, terms []uint32) float64 {
	n := min(distinct, len(terms))
	if n == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(qts) && j < len(terms) {
		switch {
		case qts[i].id == terms[j]:
			inter++
			i++
			j++
		case qts[i].id < terms[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(n)
}

// --- tail scoring ----------------------------------------------------------

// scoreTail scores every live tail document containing at least one query
// term, exactly. Contributions fold in ascending term order (the merge
// join walks both sorted lists), matching the canonical summation order.
// docBudget > 0 caps the number of exactly scored documents, matching the
// flat scorer's early-termination contract.
func (sp *space) scoreTail(qts []queryTerm, heap *topK, docBudget int, info *QueryInfo) {
	if len(sp.tail) == 0 {
		return
	}
	avgLen := sp.avgLen()
	seen := make([]bool, len(sp.tail))
	for _, qt := range qts {
		for _, p := range sp.tailPost[qt.id] {
			seen[p.doc] = true
		}
	}
	for doc, hit := range seen {
		if !hit {
			continue
		}
		h := sp.tail[doc]
		if h.dead {
			continue
		}
		score := scoreForward(qts, h, avgLen)
		if score > 0 {
			info.DocsScored++
			heap.offer(score, h)
			if docBudget > 0 && info.DocsScored >= docBudget {
				info.Terminated = true
				return
			}
		}
	}
}

// scoreForward computes one document's exact score from its forward
// profile via a sorted merge join with the canonical query term list.
func scoreForward(qts []queryTerm, h *docHandle, avgLen float64) float64 {
	var score float64
	i, j := 0, 0
	for i < len(qts) && j < len(h.terms) {
		switch {
		case qts[i].id == h.terms[j]:
			score += contrib(qts[i].idf, qts[i].qw, float64(h.tfs[j]), float64(h.length), avgLen)
			i++
			j++
		case qts[i].id < h.terms[j]:
			i++
		default:
			j++
		}
	}
	return score
}

// scoreForwardFlat is scoreForward over the segment's flattened forward-
// profile arenas: the same merge join and the same canonical ascending-
// term fold — identical values in identical order, so identical rounding —
// but reading contiguous memory instead of chasing the handle pointer.
func scoreForwardFlat(qts []queryTerm, seg *segment, doc uint32, avgLen float64) float64 {
	off, end := seg.fwdOff[doc], seg.fwdOff[doc+1]
	terms := seg.fwdTerms[off:end]
	tfs := seg.fwdTFs[off:end]
	docLen := float64(seg.lens[doc])
	var score float64
	i, j := 0, 0
	for i < len(qts) && j < len(terms) {
		switch {
		case qts[i].id == terms[j]:
			score += contrib(qts[i].idf, qts[i].qw, float64(tfs[j]), docLen, avgLen)
			i++
			j++
		case qts[i].id < terms[j]:
			i++
		default:
			j++
		}
	}
	return score
}

// --- flat segment: block-max MaxScore --------------------------------------

// flatScratch holds the dense per-document accumulation buffer. The 10k-
// corpus array is the single biggest per-query allocation; pooling it
// keeps steady-state retrieval allocation-flat.
type flatScratch struct {
	scores []float64
}

var flatScratchPool = sync.Pool{New: func() any { return new(flatScratch) }}

// scoreFlat runs MaxScore with block-max metadata over the flat segment
// in three phases:
//
//  1. Warm-up: the first blocks of the highest-upper-bound term are
//     decoded and their documents scored exactly, seeding the top-k
//     threshold with realistic scores (for query-by-schema these are the
//     query's own near-duplicates).
//  2. Essential accumulation: query terms split at the MaxScore boundary —
//     the non-essential prefix (ascending upper bounds summing below the
//     threshold) is never touched, its blocks never decompressed. The
//     remaining essential terms accumulate into a dense per-document
//     partial-score array, term-at-a-time, branch-free.
//  3. Survivors: every document whose essential partial plus the summed
//     non-essential upper bounds clears the threshold is rescored exactly
//     from its forward profile (contributions folded in canonical
//     ascending-term order — bit-identical to the exhaustive scorer) and
//     offered to the heap; everything else is pruned.
//
// The partial sums and bounds gate pruning only (with exactnessSlack);
// every score that reaches the heap comes from the canonical fold, which
// is what makes the fast path bit-identical to the reference. docBudget >
// 0 caps the number of exactly scored documents (the corpus blocker's
// budget-driven early termination); 0 means exact.
func (sp *space) scoreFlat(qts []queryTerm, heap *topK, docBudget int, info *QueryInfo) {
	seg := sp.flat
	if seg == nil || len(seg.docs) == 0 {
		return
	}
	// Terms present in the flat segment, ordered by ascending upper bound.
	type flatTerm struct {
		qi int // canonical index into qts
		ub float64
		tm *termMeta
	}
	fts := make([]flatTerm, 0, len(qts))
	totalBlocks := 0
	for qi := range qts {
		if qts[qi].tm != nil {
			fts = append(fts, flatTerm{qi: qi, ub: qts[qi].ub, tm: qts[qi].tm})
			totalBlocks += int(qts[qi].tm.blockN)
		}
	}
	if len(fts) == 0 {
		return
	}
	sort.Slice(fts, func(i, j int) bool { return fts[i].ub < fts[j].ub })
	avgLen := sp.avgLen()
	decoded := 0
	budgetHit := func() bool {
		if docBudget > 0 && info.DocsScored >= docBudget {
			info.Terminated = true
			return true
		}
		return false
	}

	// Phase 1: warm the threshold from the top-UB term's first blocks.
	// These documents are scored exactly and stay in the heap; warmDocs
	// (ascending) marks them so phase 3 does not offer them twice.
	var warmDocs []uint32
	var it postingIter
	it.init(seg, fts[len(fts)-1].tm)
	const warmBlocks = 2
	for it.next(); it.cur != exhaustedDoc && it.blocksDecoded <= warmBlocks; it.next() {
		if seg.dead[it.cur] {
			continue
		}
		warmDocs = append(warmDocs, it.cur)
		info.DocsScored++
		heap.offer(scoreForwardFlat(qts, seg, it.cur, avgLen), seg.docs[it.cur])
		if budgetHit() {
			break
		}
	}
	decoded += it.blocksDecoded

	theta := heap.threshold()
	thetaSlack := theta - theta*exactnessSlack
	// prefix[i] = sum of the i smallest upper bounds; ness is the
	// non-essential prefix length: terms fts[:ness] cannot, even in
	// combination, lift any document past the threshold.
	prefix := make([]float64, len(fts)+1)
	for i := range fts {
		prefix[i+1] = prefix[i] + fts[i].ub
	}
	ness := 0
	for ness < len(fts) && prefix[ness+1] <= thetaSlack {
		ness++
	}

	if info.Terminated {
		info.BlocksDecoded += decoded
		// The warm-up term's first blocks are decoded again by phase 2,
		// so decoded can exceed the per-term block total by a hair.
		info.BlocksSkipped += max(0, totalBlocks-decoded)
		return
	}

	// Phase 2: essential terms accumulate partial scores term-at-a-time
	// into a dense array, in ascending term-ID order. That order matches
	// the canonical fold, so when every query term is essential the
	// accumulated value for a live document IS its exact score — the
	// common shape for short free-text queries, which then skip phase 3
	// entirely.
	isNonEss := make([]bool, len(qts))
	for i := 0; i < ness; i++ {
		isNonEss[fts[i].qi] = true
	}
	sc := flatScratchPool.Get().(*flatScratch)
	defer flatScratchPool.Put(sc)
	if cap(sc.scores) < len(seg.docs) {
		sc.scores = make([]float64, len(seg.docs))
	}
	scores := sc.scores[:len(seg.docs)]
	clear(scores)
	lens := seg.lens
	for qi := range qts {
		qt := &qts[qi]
		if qt.tm == nil || isNonEss[qi] {
			continue
		}
		it.init(seg, qt.tm)
		idf, qw := qt.idf, qt.qw
		for {
			docs, tfs, ok := it.nextBlock()
			if !ok {
				break
			}
			for j, d := range docs {
				scores[d] += contrib(idf, qw, float64(tfs[j]), float64(lens[d]), avgLen)
			}
		}
		decoded += it.blocksDecoded
	}

	if ness == 0 {
		// Every term was essential: the dense array holds canonical exact
		// scores for live documents. Offer them directly — no probing, no
		// rescoring.
		wi := 0
		for doc, score := range scores {
			if score == 0 {
				continue
			}
			d := uint32(doc)
			for wi < len(warmDocs) && warmDocs[wi] < d {
				wi++
			}
			if wi < len(warmDocs) && warmDocs[wi] == d {
				continue // already offered during warm-up
			}
			if seg.dead[doc] {
				continue
			}
			info.DocsScored++
			heap.offer(score, seg.docs[doc])
			if budgetHit() {
				break
			}
		}
		info.BlocksDecoded += decoded
		// The warm-up term's first blocks are decoded again by phase 2,
		// so decoded can exceed the per-term block total by a hair.
		info.BlocksSkipped += max(0, totalBlocks-decoded)
		return
	}

	// Phase 3: candidates — documents whose essential partial plus the
	// summed non-essential upper bounds clear the threshold. The summed
	// bound alone is loose (prefix[ness] sits just below theta by
	// construction), so probe sharpens it per candidate: a single
	// sequential merge-join of the document's forward profile with the
	// non-essential terms in ascending term order, replacing each term's
	// upper bound with its exact contribution (suffix[j] carries the
	// still-unreplaced remainder) and abandoning the moment the running
	// bound drops below the threshold — non-essential posting blocks are
	// never decompressed, and the walk is linear in memory. A document
	// matching only non-essential terms is bounded by suffix[0] <= theta
	// and cannot surface. Survivors get the canonical ascending-term fold
	// (bit-identical to the exhaustive reference; the probe sum only ever
	// gates pruning).
	nessQIs := make([]int, 0, ness)
	for qi := range qts {
		if isNonEss[qi] {
			nessQIs = append(nessQIs, qi)
		}
	}
	suffix := make([]float64, len(nessQIs)+1)
	for j := len(nessQIs) - 1; j >= 0; j-- {
		suffix[j] = suffix[j+1] + qts[nessQIs[j]].ub
	}
	nonEssUB := suffix[0]
	// The summed per-term bounds use each term's global minimum document
	// length, which is far below a typical candidate's. Grouping the
	// non-essential terms by their maximum term frequency lets a per-
	// candidate bound plug in the document's exact length — the BM25 norm
	// denominator is shared within a group, so the bound costs one division
	// per group instead of one per term, and it dominates the true sum
	// because tf <= maxTF and x/(x+c) is increasing in x.
	type ubGroup struct{ tf, wsum float64 }
	var groups []ubGroup
	for _, qi := range nessQIs {
		qt := &qts[qi]
		w := qt.idf * qt.qw
		found := false
		for gi := range groups {
			if groups[gi].tf == qt.maxTF {
				groups[gi].wsum += w
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, ubGroup{tf: qt.maxTF, wsum: w})
		}
	}
	nonEssUBAt := func(docLen float64) float64 {
		c := bm25K1 * (1 - bm25B + bm25B*docLen/avgLen)
		var ub float64
		for _, g := range groups {
			ub += g.wsum * g.tf * (bm25K1 + 1) / (g.tf + c)
		}
		return ub
	}
	// Thousands of candidates share a few hundred distinct document
	// lengths, so the group bound is memoized per length — each length
	// pays the per-group divisions once per query. Zero means uncomputed
	// (the bound is strictly positive whenever non-essential terms exist).
	ubAtLen := make([]float64, seg.maxLen+1)
	probe := func(doc uint32, partial float64) (stop bool) {
		if partial+nonEssUB <= thetaSlack {
			return false
		}
		docLen := float64(lens[doc])
		ub := ubAtLen[lens[doc]]
		if ub == 0 {
			ub = nonEssUBAt(docLen)
			ubAtLen[lens[doc]] = ub
		}
		if partial+ub <= thetaSlack {
			return false
		}
		if seg.dead[doc] {
			return false
		}
		off, end := seg.fwdOff[doc], seg.fwdOff[doc+1]
		terms := seg.fwdTerms[off:end]
		tfs := seg.fwdTFs[off:end]
		ti := 0
		for j, qi := range nessQIs {
			id := qts[qi].id
			for ti < len(terms) && terms[ti] < id {
				ti++
			}
			if ti == len(terms) {
				if partial <= thetaSlack {
					return false // no doc terms left: bound is exact-partial
				}
				break
			}
			if terms[ti] == id {
				partial += contrib(qts[qi].idf, qts[qi].qw, float64(tfs[ti]), docLen, avgLen)
			}
			if partial+suffix[j+1] <= thetaSlack {
				return false
			}
		}
		info.DocsScored++
		heap.offer(scoreForwardFlat(qts, seg, doc, avgLen), seg.docs[doc])
		if nt := heap.threshold(); nt != theta {
			theta = nt
			thetaSlack = theta - theta*exactnessSlack
		}
		return budgetHit()
	}

	// Pass A: select the strongest M candidates by essential partial with
	// a small selection heap and probe them best-first. The true top
	// documents surface immediately, the threshold locks to (near) its
	// final value, and the bulk of the candidates then dies on the cheap
	// bound check in pass B before any per-document work.
	m := heap.k
	if m < 32 {
		m = 32
	}
	if m > 256 {
		m = 256
	}
	top := make([]scoredDoc, 0, m)
	wi := 0
	for doc, partial := range scores {
		if partial == 0 || partial+nonEssUB <= thetaSlack {
			continue
		}
		d := uint32(doc)
		for wi < len(warmDocs) && warmDocs[wi] < d {
			wi++
		}
		if wi < len(warmDocs) && warmDocs[wi] == d {
			continue // already offered during warm-up
		}
		if len(top) < m {
			top = append(top, scoredDoc{doc: d, partial: partial})
			siftUpScored(top)
		} else if partial > top[0].partial {
			top[0] = scoredDoc{doc: d, partial: partial}
			siftDownScored(top)
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].partial > top[j].partial })
	stopped := false
	for _, c := range top {
		if probe(c.doc, c.partial) {
			stopped = true
			break
		}
	}

	// Pass B: sweep the remaining candidates against the locked-in
	// threshold. Pass-A documents are skipped via their sorted doc list.
	if !stopped {
		topDocs := make([]uint32, len(top))
		for i, c := range top {
			topDocs[i] = c.doc
		}
		sortUint32(topDocs)
		wi, ti := 0, 0
		for doc, partial := range scores {
			if partial == 0 || partial+nonEssUB <= thetaSlack {
				continue
			}
			d := uint32(doc)
			for wi < len(warmDocs) && warmDocs[wi] < d {
				wi++
			}
			if wi < len(warmDocs) && warmDocs[wi] == d {
				continue
			}
			for ti < len(topDocs) && topDocs[ti] < d {
				ti++
			}
			if ti < len(topDocs) && topDocs[ti] == d {
				continue // already probed in pass A
			}
			if probe(d, partial) {
				break
			}
		}
	}
	info.BlocksDecoded += decoded
	info.BlocksSkipped += max(0, totalBlocks-decoded)
}

// scoredDoc is a phase-3 candidate: a flat-segment document with its
// essential partial score.
type scoredDoc struct {
	doc     uint32
	partial float64
}

// siftUpScored restores the min-heap (by partial) after an append.
func siftUpScored(h []scoredDoc) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].partial <= h[i].partial {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDownScored restores the min-heap (by partial) after a root swap.
func siftDownScored(h []scoredDoc) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].partial < h[min].partial {
			min = l
		}
		if r < len(h) && h[r].partial < h[min].partial {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// scoreFlatExhaustive is the reference scorer: term-at-a-time full
// accumulation over every live flat document, contributions folded in
// canonical term order (terms iterate ascending, and per-document sums
// accumulate in that same order). The block-max scorer must return
// bit-identical results; tests and the E18 experiment hold it to that.
func (sp *space) scoreFlatExhaustive(qts []queryTerm, heap *topK, info *QueryInfo) {
	seg := sp.flat
	if seg == nil {
		return
	}
	avgLen := sp.avgLen()
	scores := make([]float64, len(seg.docs))
	seen := make([]bool, len(seg.docs))
	var it postingIter
	for qi := range qts {
		qt := &qts[qi]
		if qt.tm == nil {
			continue
		}
		it.init(seg, qt.tm)
		for {
			docs, tfs, ok := it.nextBlock()
			if !ok {
				break
			}
			for j, d := range docs {
				if seg.dead[d] {
					continue
				}
				scores[d] += contrib(qt.idf, qt.qw, float64(tfs[j]), float64(seg.lens[d]), avgLen)
				seen[d] = true
			}
		}
		info.BlocksDecoded += it.blocksDecoded
	}
	for doc, ok := range seen {
		if !ok {
			continue
		}
		info.DocsScored++
		heap.offer(scores[doc], seg.docs[doc])
	}
}

// search runs one query over the space: the tail is scored exactly first
// (warming the pruning threshold), then the flat segment. exhaustive
// selects the reference scorer; k <= 0 returns every scoring document.
func (sp *space) search(tokens []string, k int, docBudget int, exhaustive bool, info *QueryInfo) []Result {
	qts, distinct := sp.buildQuery(tokens)
	if len(qts) == 0 {
		return nil
	}
	info.Terms = len(qts)
	if k <= 0 {
		k = sp.alive
	}
	heap := newTopK(k)
	if exhaustive {
		sp.scoreTail(qts, heap, 0, info)
		sp.scoreFlatExhaustive(qts, heap, info)
	} else {
		sp.scoreTail(qts, heap, docBudget, info)
		if !info.Terminated {
			sp.scoreFlat(qts, heap, docBudget, info)
		}
	}
	return heap.results(sp.frag, qts, distinct)
}
