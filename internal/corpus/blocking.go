package corpus

import (
	"time"

	"harmony/internal/registry"
	"harmony/internal/schema"
)

// candidate is one schema that survived (or bypassed) blocking.
type candidate struct {
	entry *registry.Entry
	// bm25 is the blocking index's relevance score (0 when the candidate
	// entered exhaustively rather than through the index).
	bm25 float64
	// overlap is the token-overlap coefficient with the query.
	overlap float64
}

// CandidateInfo is the exported view of one blocking-stage survivor: the
// observability hook for tuning budgets without running the engine.
type CandidateInfo struct {
	// Schema is the candidate's registered name.
	Schema string `json:"schema"`
	// BM25 is the index relevance score.
	BM25 float64 `json:"bm25"`
	// Overlap is the token-overlap coefficient with the query.
	Overlap float64 `json:"overlap"`
}

// Candidates runs only the blocking stage and returns the candidate set
// that would enter scoring, with the blocking figures per candidate.
func (p *Pipeline) Candidates(q *schema.Schema, cfg Config) ([]CandidateInfo, Stats, error) {
	if err := validateQuery(q); err != nil {
		return nil, Stats{}, err
	}
	cfg = cfg.withDefaults()
	var st Stats
	cands := p.block(q, q.Fingerprint(), cfg, &st)
	out := make([]CandidateInfo, 0, len(cands))
	for _, c := range cands {
		out = append(out, CandidateInfo{
			Schema:  c.entry.Schema.Name,
			BM25:    c.bm25,
			Overlap: c.overlap,
		})
	}
	return out, st, nil
}

// blockOverscan is how many times the candidate budget the BM25 stage
// retrieves before the overlap prefilter and budget truncation: the two
// rankings disagree at the margin, and prefiltered hits must be
// replaceable.
const blockOverscan = 4

// block generates the candidate set for a query: BM25 retrieval over the
// registry index, a token-overlap prefilter on the overlap the index
// reports per hit, and budget truncation. Candidates come back in BM25
// order. In exhaustive mode every registered schema (minus the query
// itself) is a candidate.
func (p *Pipeline) block(q *schema.Schema, qfp string, cfg Config, st *Stats) []candidate {
	start := time.Now()
	defer func() { st.BlockMillis = time.Since(start).Milliseconds() }()

	var cands []candidate
	if cfg.Exhaustive {
		for _, e := range p.reg.Schemas() {
			if e.Schema.Name == q.Name || e.Fingerprint == qfp {
				continue
			}
			if !cfg.inShard(e.Fingerprint) {
				continue
			}
			st.CorpusSize++
			cands = append(cands, candidate{entry: e})
		}
		st.Candidates = len(cands)
		return cands
	}

	if cfg.Shards > 1 {
		// Report the shard's partition size, so summing stats across a
		// scatter-gather fan-out reproduces the full corpus size.
		for _, e := range p.reg.Schemas() {
			if e.Schema.Name != q.Name && cfg.inShard(e.Fingerprint) {
				st.CorpusSize++
			}
		}
	} else {
		st.CorpusSize = p.reg.Len()
		if _, self := p.reg.Schema(q.Name); self {
			st.CorpusSize--
		}
	}
	hits, qinfo := p.reg.SearchSchemaInfo(q, cfg.Candidates*blockOverscan, cfg.BlockBudget)
	st.BlockDocsScored = qinfo.DocsScored
	st.BlockTerminated = qinfo.Terminated
	for _, h := range hits {
		if h.Schema == q.Name {
			continue
		}
		e, ok := p.reg.Schema(h.Schema)
		if !ok || e.Fingerprint == qfp {
			continue
		}
		if !cfg.inShard(e.Fingerprint) {
			// Another shard's work, not a pruned candidate.
			continue
		}
		if h.Overlap < cfg.MinOverlap {
			st.Pruned++
			continue
		}
		cands = append(cands, candidate{entry: e, bm25: h.Score, overlap: h.Overlap})
	}
	// The index already returns hits by BM25 rank; enforce the budget on
	// that order (relevance).
	if len(cands) > cfg.Candidates {
		st.Pruned += len(cands) - cfg.Candidates
		cands = cands[:cfg.Candidates]
	}
	st.Candidates = len(cands)
	return cands
}
