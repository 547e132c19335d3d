package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"harmony/internal/core"
	"harmony/internal/corpus"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/search"
	"harmony/internal/service"
	"harmony/internal/store"
	"harmony/internal/synth"
)

// The corpus-topk workload: GET /v1/corpus/topk at server defaults over
// an MDR-scale repository — the 10k-schema fixture bulk-loaded into a
// store and restarted — for distinct query schemata in seeded order. The
// corpus is ~80× the profile cache, so candidate scoring compiles
// profiles, and every scored candidate journals one match artifact.

// The fixture is fixed; the seed orders the queries.
const (
	corpusFixtureSeed = 42
	corpusDomains     = 16
	corpusPerDomain   = 625
	// corpusPrime queries run before timing, from the far end of the
	// seeded order, so the timed queries never repeat them.
	corpusPrime = 3
	// corpusMinOps is the least number of timed queries per run: the
	// latency of a query swings with fsync stalls of its 32 artifact
	// commits, so a run averages over more of them than minOps.
	corpusMinOps = 2 * minOps
	// corpusMaxOps caps the timed queries of one run.
	corpusMaxOps = 2000
)

// ndjsonStreams serializes schemata into NDJSON bodies of size lines.
func ndjsonStreams(ss []*schema.Schema, size int) ([][]byte, error) {
	var bodies [][]byte
	for i := 0; i < len(ss); i += size {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, sc := range ss[i:min(i+size, len(ss))] {
			if err := enc.Encode(sc); err != nil {
				return nil, err
			}
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies, nil
}

// corpusStore returns the prepared 10k-schema store, building it on the
// first run in a checkout: the fixture is bulk-loaded in streams of 1000
// and the daemon shut down, which persists the warmed profiles and a
// final snapshot. Later runs copy it.
func corpusStore(b *bench) (string, error) {
	dir := filepath.Join(b.shared, "prepared", "corpus-10k")
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	t0 := time.Now()
	ss, _, _ := synth.Collection(corpusFixtureSeed, corpusDomains, corpusPerDomain)
	bodies, err := ndjsonStreams(ss, 1000)
	if err != nil {
		return "", err
	}
	if err := prepareStore(tmp, bodies...); err != nil {
		return "", err
	}
	b.note("built the prepared corpus store in %.1fs", time.Since(t0).Seconds())
	return dir, os.Rename(tmp, dir)
}

// corpusQueries orders the fixture's schema names by the seed, the prime
// queries first, then the timed ones. The order cycles through all
// domains (in a seeded order per cycle), so every run draws the same mix
// of domains and differs only in which schemata it picks.
func corpusQueries(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]int, corpusDomains)
	for d := range perms {
		perms[d] = rng.Perm(corpusPerDomain)
	}
	names := make([]string, 0, corpusDomains*corpusPerDomain)
	for i := 0; i < corpusPerDomain; i++ {
		for _, d := range rng.Perm(corpusDomains) {
			names = append(names, fmt.Sprintf("D%d_S%d", d+1, perms[d][i]+1))
		}
	}
	n := len(names)
	return append(names[n-corpusPrime:], names[:n-corpusPrime]...)
}

type topkResponse struct {
	Query   string `json:"query"`
	Matches []struct {
		Schema string  `json:"schema"`
		Score  float64 `json:"score"`
	} `json:"matches"`
}

func (d *daemon) topk(query string) (topkResponse, time.Duration, error) {
	var resp topkResponse
	t0 := time.Now()
	err := getJSON(d.url+"/v1/corpus/topk?schema="+url.QueryEscape(query), &resp)
	return resp, time.Since(t0), err
}

// digest condenses a ranking to its names and exact scores.
func digest(query string, names []string, scores []float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s", query)
	for i := range names {
		fmt.Fprintf(h, "|%s=%s", names[i], strconv.FormatFloat(scores[i], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// checkTopK validates one ranking's shape and returns its digest.
func (b *bench) checkTopK(query string, resp topkResponse) string {
	names := make([]string, len(resp.Matches))
	scores := make([]float64, len(resp.Matches))
	for i, m := range resp.Matches {
		names[i], scores[i] = m.Schema, m.Score
		switch {
		case m.Schema == query:
			b.fail("topk %s ranks the query itself", query)
		case m.Score <= 0 || m.Score > 1:
			b.fail("topk %s: score %v out of (0,1]", query, m.Score)
		case i > 0 && m.Score > scores[i-1]:
			b.fail("topk %s: ranking not descending", query)
		}
	}
	if resp.Query != query || len(resp.Matches) != daemonConfig("").CorpusTopK {
		b.fail("topk %s: query %q with %d matches", query, resp.Query, len(resp.Matches))
	}
	return digest(query, names, scores)
}

// checkDigests is the corpus answer check: the ranked names and scores
// of the first minOps timed queries must repeat across runs of one seed.
func (b *bench) checkDigests(digests []string) error {
	rec := make(map[string]string, len(digests))
	for i, dg := range digests[:min(len(digests), minOps)] {
		rec[fmt.Sprintf("op%04d", i)] = dg
	}
	path := filepath.Join(b.shared, "records", fmt.Sprintf("%s-answers-seed%d.json", b.workload, b.seed))
	diff, err := checkRecord(path, rec)
	if err != nil {
		return err
	}
	for _, k := range diff {
		b.fail("ranking %s differs from an earlier run of seed %d", k, b.seed)
	}
	return nil
}

func runCorpus(b *bench) error {
	prepared, err := corpusStore(b)
	if err != nil {
		return err
	}
	queries := corpusQueries(b.seed)
	setup, d, err := measureSetup(prepared, filepath.Join(b.work, "store"), 2)
	if err != nil {
		return err
	}
	// The restart warm-loaded the persisted profiles; a few untimed
	// queries fill the process-global text state and matrix pool the
	// same way on every run of a seed.
	for _, q := range queries[:corpusPrime] {
		if _, _, err := d.topk(q); err != nil {
			d.stop()
			return fmt.Errorf("prime %s: %w", q, err)
		}
	}
	b.note("primed: daemon restarted over a fresh copy of the prepared store, %d untimed queries", corpusPrime)
	if b.traced {
		return traceCorpus(b, d, queries, prepared, setup)
	}
	b.set("setup_s", setup, "s")
	quiesce()
	st0, err := d.stats()
	if err != nil {
		return err
	}
	var (
		lat     []float64
		digests []string
		timed   time.Duration
		// A forced collection of the 10k-schema heap takes ~0.3 s, so
		// samples are sparse; the heap barely moves between queries.
		heap = heapSampler{every: 40}
	)
	for _, q := range queries[corpusPrime:] {
		resp, dt, err := d.topk(q)
		timed += dt
		lat = append(lat, ms(dt))
		b.rep.Attempted++
		if err != nil {
			b.fail("%v", err)
			digests = append(digests, "error")
		} else {
			digests = append(digests, b.checkTopK(q, resp))
		}
		heap.op()
		if (len(lat) >= corpusMinOps && timed >= b.seconds) || len(lat) >= corpusMaxOps {
			break
		}
	}
	st1, err := d.stats()
	if err != nil {
		return err
	}
	b.set("heap_live_mb", heap.median(), "MB")
	if err := d.stop(); err != nil {
		return err
	}
	b.reportLatency(lat, timed, float64(len(lat)))
	b.note("store.snapshots during the timed section: %d; match cache hits %d of %d lookups",
		st1.Store.Snapshots-st0.Store.Snapshots, st1.Cache.Hits-st0.Cache.Hits,
		st1.Cache.Hits-st0.Cache.Hits+st1.Cache.Misses-st0.Cache.Misses)
	return b.checkDigests(digests)
}

// replayCorpusCache is the benchmark-side corpus.Cache: it serves and
// stores outcomes through a service match cache and journals one
// artifact per fresh outcome, as the daemon's adapter does, timing the
// artifact writes.
type replayCorpusCache struct {
	reg *registry.Registry
	mc  *service.Cache
	add *samples
}

func (c *replayCorpusCache) Lookup(key corpus.CacheKey) ([]corpus.Pair, string, bool) {
	out, ok := c.mc.Get(service.CacheKey(key))
	if !ok {
		return nil, "", false
	}
	pairs := make([]corpus.Pair, 0, len(out.Pairs))
	for _, p := range out.Pairs {
		pairs = append(pairs, corpus.Pair{PathA: p.PathA, PathB: p.PathB, Score: p.Score})
	}
	return pairs, out.ReusedVia, true
}

func (c *replayCorpusCache) Store(key corpus.CacheKey, query string, m *corpus.SchemaMatch) {
	out := &service.MatchOutcome{ReusedVia: m.Hub, Pairs: make([]service.MatchPair, 0, len(m.Pairs))}
	pairs := make([]pair, 0, len(m.Pairs))
	for _, p := range m.Pairs {
		out.Pairs = append(out.Pairs, service.MatchPair{PathA: p.PathA, PathB: p.PathB, Score: p.Score})
		pairs = append(pairs, pair{p.PathA, p.PathB, p.Score})
	}
	c.mc.Put(service.CacheKey(key), out)
	c.add.time(func() {
		storeArtifact(c.reg, query, m.Schema, key.FingerprintA, key.FingerprintB, key.Threshold, pairs, m.Hub)
	})
}

// traceCorpus runs a fixed list of queries over HTTP, then replays the
// prime and timed queries through corpus, search, core, registry and
// store on a fresh copy of the prepared store.
func traceCorpus(b *bench, d *daemon, queries []string, prepared string, setup float64) error {
	ops := queries[corpusPrime : corpusPrime+minOps]
	st0, err := d.stats()
	if err != nil {
		return err
	}
	untraced := make([]float64, len(ops))
	digests := make([]string, len(ops))
	for i, q := range ops {
		resp, dt, err := d.topk(q)
		untraced[i] = ms(dt)
		b.rep.Attempted++
		if err != nil {
			b.fail("%v", err)
		} else {
			digests[i] = b.checkTopK(q, resp)
		}
	}
	st1, err := d.stats()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if err := b.checkDigests(digests); err != nil {
		return err
	}

	r, err := openReplay(b, prepared, setup)
	if err != nil {
		return err
	}
	defer r.close()
	reg := r.st.Registry()
	var add, profile, block, query, topk, score samples
	pipe := corpus.NewPipeline(reg, &replayCorpusCache{reg: reg, mc: r.mc, add: &add})
	cfg := daemonConfig("")
	ccfg := corpus.Config{
		Candidates:   cfg.CorpusCandidates,
		TopK:         cfg.CorpusTopK,
		Threshold:    cfg.Threshold,
		Preset:       cachePreset,
		SparseBudget: cfg.SparseBudget,
	}
	var (
		stats   corpus.Stats
		info    search.QueryInfo
		hits    int
		lookups core.ProfileCacheStats // TopK's profile cache deltas
		s0      store.Stats
	)
	layerSum := make([]float64, len(ops))
	for i, q := range queries[:corpusPrime+len(ops)] {
		timedOp := i >= corpusPrime
		if i == corpusPrime {
			s0 = r.st.Stats()
		}
		e, ok := reg.Schema(q)
		if !ok {
			return fmt.Errorf("replay: %s not registered", q)
		}
		// TopK runs first and alone, as the daemon runs it, so its profile
		// cache lookups and timing are the daemon's.
		before := r.pc.Stats()
		var res *corpus.Result
		tk := topk.time(func() { res, err = pipe.TopK(context.Background(), r.eng, e.Schema, ccfg) })
		if err != nil {
			return err
		}
		if !timedOp {
			continue
		}
		after := r.pc.Stats()
		lookups.Hits += after.Hits - before.Hits
		lookups.Misses += after.Misses - before.Misses
		layerSum[i-corpusPrime] = ms(tk)
		stats.EngineRuns += res.Stats.EngineRuns
		stats.EarlyExits += res.Stats.EarlyExits
		stats.Reused += res.Stats.Reused
		stats.CacheHits += res.Stats.CacheHits
		hits += len(res.Matches)
		names := make([]string, len(res.Matches))
		scores := make([]float64, len(res.Matches))
		for j, m := range res.Matches {
			names[j], scores[j] = m.Schema, m.Score
		}
		if dg := digest(q, names, scores); dg != digests[i-corpusPrime] {
			b.fail("topk %s: layer replay ranking differs from the daemon's", q)
		}

		// The stages of TopK on their own, after it: blocking, the
		// retrieval under it, and a profile compile of the query and each
		// candidate on a throwaway cache, which leaves the replay's cache
		// as the daemon's would be.
		var cands []corpus.CandidateInfo
		tb := block.time(func() { cands, _, err = pipe.Candidates(e.Schema, ccfg) })
		if err != nil {
			return err
		}
		score.add(tk - tb)
		var qi search.QueryInfo
		// The pipeline retrieves four times the candidate budget before
		// its overlap prefilter.
		query.time(func() { _, qi = reg.SearchSchemaInfo(e.Schema, 4*ccfg.Candidates, ccfg.BlockBudget) })
		info.DocsScored += qi.DocsScored
		info.BlocksDecoded += qi.BlocksDecoded
		info.BlocksSkipped += qi.BlocksSkipped
		cold := replayEngine(core.NewProfileCache(len(cands) + 1))
		profile.time(func() { cold.Profile(e.Schema) })
		for _, c := range cands {
			ce, _ := reg.Schema(c.Schema)
			profile.time(func() { cold.Profile(ce.Schema) })
		}
	}
	s1 := r.st.Stats()
	// The daemon's counters cover the same timed queries.
	if served := int(st1.Corpus.EngineRuns - st0.Corpus.EngineRuns); served != stats.EngineRuns {
		b.fail("daemon ran the engine %d times over the timed queries, the replay %d", served, stats.EngineRuns)
	}
	b.checkJournal(st0, st1, s0, s1)
	n := float64(len(ops))
	b.reportOverhead(untraced, layerSum)
	b.set("service.cache_hit_ratio", ratio(float64(st1.Cache.Hits-st0.Cache.Hits), float64(st1.Cache.Hits-st0.Cache.Hits+st1.Cache.Misses-st0.Cache.Misses)), "ratio")
	b.set("store.snapshots", float64(st1.Store.Snapshots-st0.Store.Snapshots), "count")
	b.set("core.profile_ns", profile.median(), "ns")
	b.set("core.profile_hit_ratio", hitRatio(core.ProfileCacheStats{}, lookups), "ratio")
	b.set("corpus.topk_ns", topk.median(), "ns")
	b.set("corpus.block_ns", block.median(), "ns")
	b.set("corpus.score_ns", score.median(), "ns")
	b.set("corpus.engine_runs", float64(stats.EngineRuns)/n, "count")
	b.set("corpus.early_exits", float64(stats.EarlyExits)/n, "count")
	b.set("corpus.useful_ratio", ratio(float64(hits), float64(stats.EngineRuns+stats.Reused+stats.CacheHits)), "ratio")
	b.set("search.query_ns", query.median(), "ns")
	b.set("search.docs_scored", float64(info.DocsScored)/n, "count")
	b.set("search.blocks_skipped_ratio", ratio(float64(info.BlocksSkipped), float64(info.BlocksDecoded+info.BlocksSkipped)), "ratio")
	b.set("registry.add_match_ns", add.median(), "ns")
	r.reportStore(s0, s1, n, 0)
	return b.checkCounts(map[string]float64{
		"corpus.engine_runs":   float64(stats.EngineRuns),
		"search.docs_scored":   float64(info.DocsScored),
		"store.commits_per_op": float64(s1.Commits - s0.Commits),
	})
}
