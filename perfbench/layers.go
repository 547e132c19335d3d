package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/service"
	"harmony/internal/store"
)

// Helpers for the traced replay: the same operations the daemon runs,
// called through each layer's public functions and timed from outside.

// samples collects per-call durations; safe for concurrent use.
type samples struct {
	mu sync.Mutex
	ns []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, ns(d))
	s.mu.Unlock()
}

// time runs f and records its duration, which it also returns.
func (s *samples) time(f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	s.add(d)
	return d
}

func (s *samples) median() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.ns)
}

func (s *samples) total() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sum(s.ns)
}

// timingJournal wraps the store as the registry's journal, timing the
// commit enqueue and the durability wait of every record separately.
type timingJournal struct {
	st      *store.Store
	enqueue samples
	wait    samples
}

var (
	_ registry.AsyncJournal = (*timingJournal)(nil)
	_ registry.BatchLocker  = (*timingJournal)(nil)
)

func (j *timingJournal) Commit(ops []registry.Op) error { return j.CommitAsync(ops)() }

func (j *timingJournal) CommitAsync(ops []registry.Op) func() error {
	t0 := time.Now()
	wait := j.st.CommitAsync(ops)
	j.enqueue.add(time.Since(t0))
	return func() error {
		t1 := time.Now()
		err := wait()
		j.wait.add(time.Since(t1))
		return err
	}
}

func (j *timingJournal) LockBatch()   { j.st.LockBatch() }
func (j *timingJournal) UnlockBatch() { j.st.UnlockBatch() }

// openTimed opens a store directory with the daemon's options and
// installs the timing journal.
func openTimed(dir string) (*store.Store, *timingJournal, time.Duration, error) {
	cfg := daemonConfig(dir)
	t0 := time.Now()
	st, err := store.Open(store.Options{
		Dir:           dir,
		Fsync:         store.FsyncPolicy(cfg.Fsync),
		SnapshotEvery: cfg.SnapshotEvery,
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("open store: %w", err)
	}
	open := time.Since(t0)
	tj := &timingJournal{st: st}
	st.Registry().SetJournal(tj)
	return st, tj, open, nil
}

// warmLoad replays the daemon's boot-time profile warm-load: every
// persisted profile of a registered schema is decoded and put into the
// cache. It returns the number decoded.
func warmLoad(pc *core.ProfileCache, reg *registry.Registry, st *store.Store) (int, error) {
	byFP := make(map[string]*schema.Schema)
	for _, e := range reg.Schemas() {
		byFP[e.Fingerprint] = e.Schema
	}
	decoded := 0
	for _, fp := range st.ProfileFingerprints() {
		sc, ok := byFP[fp]
		if !ok {
			continue
		}
		blob, ok := st.LoadProfile(fp)
		if !ok {
			continue
		}
		p, err := core.DecodeProfile(sc, blob)
		if err != nil {
			return decoded, fmt.Errorf("profile %s: %w", fp, err)
		}
		pc.Put(fp, p)
		decoded++
	}
	return decoded, nil
}

// replayEngine is the daemon's default preset engine: harmony with
// sparse scoring at the default budget over a compiled-profile cache.
func replayEngine(pc *core.ProfileCache) *core.Engine {
	return core.Presets()["harmony"]().WithOptions(core.WithSparse(service.DefaultSparseBudget), core.WithProfileCache(pc))
}

// cachePreset is the daemon's cache-keying preset string for the default
// engine.
var cachePreset = "harmony+sparse" + strconv.Itoa(service.DefaultSparseBudget)

// pair is one selected correspondence, by path.
type pair struct {
	PathA string  `json:"pathA"`
	PathB string  `json:"pathB"`
	Score float64 `json:"score"`
}

// pathPairs shapes selected correspondences by path, as the daemon
// answers them.
func pathPairs(res *core.Result, sel []core.Correspondence) []pair {
	out := make([]pair, 0, len(sel))
	for _, c := range sel {
		out = append(out, pair{res.Src.View(c.Src).El.Path(), res.Dst.View(c.Dst).El.Path(), c.Score})
	}
	return out
}

func selectPairs(res *core.Result, threshold float64) []pair {
	return pathPairs(res, core.SelectGreedyOneToOne(res.Matrix, threshold))
}

// storeArtifact journals a match outcome the way the daemon does: one
// harmonyd-tool artifact per cache key, deduplicated by its provenance
// notes, scores clamped below 1.
func storeArtifact(reg *registry.Registry, a, b, fpA, fpB string, threshold float64, pairs []pair, hub string) {
	notes := fmt.Sprintf("preset=%s threshold=%s fpA=%s fpB=%s",
		cachePreset, strconv.FormatFloat(threshold, 'g', -1, 64), fpA, fpB)
	for _, ma := range reg.MatchesBetween(a, b) {
		if n := ma.Provenance.Notes; ma.Provenance.Tool == "harmonyd" && (n == notes || strings.HasPrefix(n, notes+" ")) {
			return
		}
	}
	if hub != "" {
		notes += " via=" + hub
	}
	ma := registry.MatchArtifact{
		SchemaA:    a,
		SchemaB:    b,
		Context:    registry.ContextSearch,
		Provenance: registry.Provenance{CreatedBy: "harmonyd", Tool: "harmonyd", Notes: notes},
	}
	for _, p := range pairs {
		score := p.Score
		if score >= 1 {
			score = 0.9999
		}
		ma.Pairs = append(ma.Pairs, registry.AssertedMatch{PathA: p.PathA, PathB: p.PathB, Score: score, Status: registry.StatusProposed})
	}
	_, _ = reg.AddMatch(ma)
}

func hitRatio(a, b core.ProfileCacheStats) float64 {
	hits := float64(b.Hits - a.Hits)
	return ratio(hits, hits+float64(b.Misses-a.Misses))
}

// checkJournal compares the store work of the daemon's HTTP pass with the
// replay's over the same operations. The replay copies some of the
// daemon's paths (artifact writes, the bulk pipeline, the corpus cache
// adapter); a copy that no longer journals what the daemon journals
// fails the run rather than quietly measuring something else.
func (b *bench) checkJournal(d0, d1 service.Stats, r0, r1 store.Stats) {
	if d0.Store == nil || d1.Store == nil {
		b.fail("daemon reports no store stats")
		return
	}
	dc, rc := d1.Store.Commits-d0.Store.Commits, r1.Commits-r0.Commits
	do, ro := d1.Store.OpsCommitted-d0.Store.OpsCommitted, r1.OpsCommitted-r0.OpsCommitted
	db, rb := d1.Store.AppendedBytes-d0.Store.AppendedBytes, r1.AppendedBytes-r0.AppendedBytes
	// Every op carries one registration or creation time, whose fraction
	// of a second the WAL writes in 0 to 10 bytes ("." and up to nine
	// digits, trailing zeros dropped): the only byte difference two
	// identical journals can show. Both sides draw these lengths from the
	// same clock, so their sums differ by a few bytes per hundred ops;
	// one byte per op is more than twenty standard deviations of that,
	// yet a copy that writes even two bytes more per op exceeds it.
	slack := do
	if dc != rc || do != ro || db > rb+slack || rb > db+slack {
		b.fail("replay journaled %d ops in %d commits of %d bytes, the daemon %d ops in %d commits of %d bytes over the same operations",
			ro, rc, rb, do, dc, db)
	}
}

// reportOverhead reconciles the replayed layer time of each operation
// with its untraced HTTP latency: the difference is the service's own
// share (HTTP, decoding, lookups, caches, encoding).
func (b *bench) reportOverhead(untraced, layerSum []float64) {
	over := make([]float64, len(untraced))
	for i := range untraced {
		over[i] = untraced[i] - layerSum[i]
	}
	p50 := median(untraced)
	b.set("service.overhead_ms", median(over), "ms")
	b.set("trace.untraced_p50_ms", p50, "ms")
	b.set("trace.layer_sum_ms", median(layerSum), "ms")
	b.set("trace.layer_sum_ratio", ratio(median(layerSum), p50), "ratio")
	if median(layerSum) > 1.1*p50 {
		b.note("WARNING: replayed layer sum %.1f ms exceeds the untraced median %.1f ms by more than 10%%", median(layerSum), p50)
	}
}

// replay is the in-process stand-in for a restarted daemon: the store
// opened with a timing journal, a profile cache warm-loaded like the
// daemon's, the match cache warm-started, and the default engine.
type replay struct {
	b   *bench
	st  *store.Store
	tj  *timingJournal
	pc  *core.ProfileCache
	eng *core.Engine
	mc  *service.Cache
}

// openReplay restores a fresh copy of the prepared store through the
// layers a daemon restart runs, reporting the restart breakdown beside
// the untraced set-up time it measured.
func openReplay(b *bench, prepared string, setup float64) (*replay, error) {
	dir := filepath.Join(b.work, "replay")
	if err := freshCopy(prepared, dir); err != nil {
		return nil, err
	}
	quiesce()
	st, tj, open, err := openTimed(dir)
	if err != nil {
		return nil, err
	}
	r := &replay{b: b, st: st, tj: tj, pc: core.NewProfileCache(daemonConfig("").ProfileCache)}
	t0 := time.Now()
	decoded, err := warmLoad(r.pc, st.Registry(), st)
	if err != nil {
		st.Close()
		return nil, err
	}
	warm := time.Since(t0)
	r.mc = service.NewCache(daemonConfig("").CacheSize)
	t0 = time.Now()
	service.WarmStart(r.mc, st.Registry())
	warmStart := time.Since(t0)
	r.eng = replayEngine(r.pc)

	b.set("store.open_s", open.Seconds(), "s")
	b.set("core.profile_warm_s", warm.Seconds(), "s")
	b.set("core.profiles_retained_ratio", ratio(float64(r.pc.Len()), float64(decoded)), "ratio")
	b.set("service.warm_start_s", warmStart.Seconds(), "s")
	b.set("setup.untraced_s", setup, "s")
	b.set("setup.remainder_s", setup-(open+warm+warmStart).Seconds(), "s")
	return r, nil
}

func (r *replay) close() { r.st.Close() }

// reportStore sets the store-layer metrics from the journal timings and
// the store's counters over the replayed operations.
func (r *replay) reportStore(s0, s1 store.Stats, ops, schemas float64) {
	b := r.b
	b.set("store.commit_ns", r.tj.enqueue.median(), "ns")
	b.set("store.durable_wait_ns", r.tj.wait.median(), "ns")
	b.set("store.commits_per_op", float64(s1.Commits-s0.Commits)/ops, "count")
	b.set("store.records_per_sync", ratio(float64(s1.Commits-s0.Commits), float64(s1.Syncs-s0.Syncs)), "ratio")
	b.set("store.bytes_per_schema", ratio(float64(s1.AppendedBytes-s0.AppendedBytes), schemas), "B")
}
