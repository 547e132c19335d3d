package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"harmony/internal/core"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

// The match workload: POST /v1/match over eleven large registered
// schemata — the case-study pair SA/SB (1378×784) plus nine synthetic
// relational and XML schemata of roughly 330–960 elements. Every
// unordered pair is requested once at the server's default threshold and
// then once at the case-study operating point 0.74, so the match cache
// misses on every request and the second request of a pair runs on the
// pair tables the first one left behind.

const caseStudyThreshold = 0.74

// minOps is the least number of timed operations per run, so that at
// least ten samples lie beyond the 90th percentile.
const minOps = 100

type matchOp struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	Threshold float64 `json:"threshold,omitempty"`
}

// effective is the threshold the server applies (0 means its default).
func (op matchOp) effective() float64 {
	if op.Threshold == 0 {
		return daemonConfig("").Threshold
	}
	return op.Threshold
}

type matchFixture struct {
	body    []byte                    // NDJSON registration stream
	schemas map[string]*schema.Schema // parsed from the stream, for replays
	ops     []matchOp                 // one round: every pair at both thresholds
}

// matchSpecs sizes the synthetic schemata (concepts × attributes each).
var matchSpecs = []struct {
	relational         bool
	concepts, attrsPer int
}{
	{true, 30, 10}, {false, 36, 10}, {true, 40, 11}, {false, 45, 11}, {true, 50, 11},
	{false, 55, 11}, {true, 60, 11}, {false, 70, 11}, {true, 80, 11},
}

func newMatchFixture(seed int64) (*matchFixture, error) {
	sa, sb, _ := synth.CaseStudy(seed)
	all := []*schema.Schema{sa, sb}
	for i, sp := range matchSpecs {
		format, style, kind := schema.FormatXML, synth.StyleXML, "XML"
		if sp.relational {
			format, style, kind = schema.FormatRelational, synth.StyleRelational, "REL"
		}
		sc, _ := synth.Custom(fmt.Sprintf("M%02d_%s", i+1, kind), format, style, seed*100+int64(i), sp.concepts, sp.attrsPer, 0)
		all = append(all, sc)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	fx := &matchFixture{schemas: make(map[string]*schema.Schema, len(all))}
	for _, sc := range all {
		if err := enc.Encode(sc); err != nil {
			return nil, err
		}
	}
	fx.body = buf.Bytes()
	for _, line := range bytes.Split(bytes.TrimSpace(fx.body), []byte("\n")) {
		sc, err := schema.ParseJSON(line)
		if err != nil {
			return nil, err
		}
		fx.schemas[sc.Name] = sc
	}
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]string
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i].Name, all[j].Name
			if rng.Intn(2) == 1 {
				a, b = b, a
			}
			pairs = append(pairs, [2]string{a, b})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		fx.ops = append(fx.ops, matchOp{A: p[0], B: p[1]}, matchOp{A: p[0], B: p[1], Threshold: caseStudyThreshold})
	}
	return fx, nil
}

// prepareStore registers streams of schemata in a fresh store (none for
// an empty one) and shuts the daemon down, which drains the post-stream
// profile warmer: the store then holds the schemata plus their persisted
// compiled profiles.
func prepareStore(dir string, bodies ...[]byte) error {
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	for _, body := range bodies {
		if _, err := d.bulkIngest(body); err != nil {
			d.stop()
			return fmt.Errorf("prepare %s: %w", dir, err)
		}
	}
	return d.stop()
}

type matchResponse struct {
	Threshold float64 `json:"threshold"`
	Cached    bool    `json:"cached"`
	Pairs     []pair  `json:"pairs"`
}

func (d *daemon) match(op matchOp) (matchResponse, time.Duration, error) {
	var resp matchResponse
	t0 := time.Now()
	err := postJSON(d.url+"/v1/match", op, &resp)
	return resp, time.Since(t0), err
}

// checkMatch compares one response with the expected correspondences.
func (b *bench) checkMatch(op matchOp, resp matchResponse, want []pair) {
	switch {
	case resp.Cached:
		b.fail("%s×%s@%v served from the match cache", op.A, op.B, op.effective())
	case resp.Threshold != op.effective():
		b.fail("%s×%s: threshold %v, want %v", op.A, op.B, resp.Threshold, op.effective())
	case !slices.Equal(resp.Pairs, want):
		b.fail("%s×%s@%v: %d pairs differ from the in-process replay (%d)", op.A, op.B, op.effective(), len(resp.Pairs), len(want))
	}
}

// matchAnswers computes the expected correspondences of every operation
// with an in-process replay: Engine.Match plus SelectGreedyOneToOne at
// the daemon's preset, sparse budget and threshold. Computing them before
// the timed section also primes the process-global state every match
// touches (token intern table, lexical memos, matrix pool), so the first
// timed request does not pay one-off warm-up.
func matchAnswers(fx *matchFixture) map[matchOp][]pair {
	want := make(map[matchOp][]pair, len(fx.ops))
	eng := replayEngine(core.NewProfileCache(0))
	for i := 0; i < len(fx.ops); i += 2 {
		op := fx.ops[i]
		res := eng.Match(fx.schemas[op.A], fx.schemas[op.B])
		want[op] = selectPairs(res, op.effective())
		want[fx.ops[i+1]] = selectPairs(res, fx.ops[i+1].effective())
		res.Release()
	}
	return want
}

func runMatch(b *bench) error {
	fx, err := newMatchFixture(b.seed)
	if err != nil {
		return err
	}
	prepared := filepath.Join(b.work, "prepared")
	if err := prepareStore(prepared, fx.body); err != nil {
		return err
	}
	want := matchAnswers(fx)
	b.note("primed: prepared store restarted (profiles warm-loaded), process-global text and matrix state by the answer replay")
	if b.traced {
		return traceMatch(b, fx, prepared, want)
	}

	dir := filepath.Join(b.work, "store")
	setup, d, err := measureSetup(prepared, dir, 5)
	if err != nil {
		return err
	}
	b.set("setup_s", setup, "s")

	var (
		lat       []float64
		timed     time.Duration
		snapshots uint64
		heap      = heapSampler{every: 10}
	)
	// Whole rounds only, so every run times the same mix of pair sizes.
	for round := 0; len(lat) < minOps || timed < b.seconds; round++ {
		if round > 0 {
			// A fresh copy of the prepared store empties the match cache
			// (and its warm-start artifacts), so a repeated pair misses
			// again, as in the first round.
			if err := d.stop(); err != nil {
				return err
			}
			if err := freshCopy(prepared, dir); err != nil {
				return err
			}
			if d, err = startDaemon(dir); err != nil {
				return err
			}
		}
		quiesce()
		st0, err := d.stats()
		if err != nil {
			return err
		}
		for _, op := range fx.ops {
			resp, dt, err := d.match(op)
			timed += dt
			lat = append(lat, ms(dt))
			b.rep.Attempted++
			if err != nil {
				b.fail("%v", err)
			} else {
				b.checkMatch(op, resp, want[op])
			}
			heap.op()
		}
		st1, err := d.stats()
		if err != nil {
			return err
		}
		snapshots += st1.Store.Snapshots - st0.Store.Snapshots
	}
	b.set("heap_live_mb", heap.median(), "MB")
	if err := d.stop(); err != nil {
		return err
	}
	b.reportLatency(lat, timed, float64(len(lat)))
	b.note("store.snapshots during the timed section: %d", snapshots)
	return nil
}

// traceMatch runs one round over HTTP, then replays it through core,
// registry and store, timing each call.
func traceMatch(b *bench, fx *matchFixture, prepared string, want map[matchOp][]pair) error {
	setup, d, err := measureSetup(prepared, filepath.Join(b.work, "store"), 1)
	if err != nil {
		return err
	}
	st0, err := d.stats()
	if err != nil {
		return err
	}
	untraced := make([]float64, len(fx.ops))
	for i, op := range fx.ops {
		resp, dt, err := d.match(op)
		untraced[i] = ms(dt)
		b.rep.Attempted++
		if err != nil {
			b.fail("%v", err)
		} else {
			b.checkMatch(op, resp, want[op])
		}
	}
	st1, err := d.stats()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	r, err := openReplay(b, prepared, setup)
	if err != nil {
		return err
	}
	defer r.close()
	reg := r.st.Registry()
	var profile, match, sel, suggest, addMatch samples
	var pairsScored, sparse float64
	layerSum := make([]float64, len(fx.ops))
	pc0, s0 := r.pc.Stats(), r.st.Stats()
	for i, op := range fx.ops {
		ea, okA := reg.Schema(op.A)
		eb, okB := reg.Schema(op.B)
		if !okA || !okB {
			return fmt.Errorf("replay: %s or %s not registered", op.A, op.B)
		}
		var (
			pa, pb *core.CompiledProfile
			res    *core.Result
			cs     []core.Correspondence
		)
		t := profile.time(func() { pa = r.eng.Profile(ea.Schema) })
		t += profile.time(func() { pb = r.eng.Profile(eb.Schema) })
		t += match.time(func() { res = r.eng.MatchProfiles(pa, pb) })
		t += sel.time(func() { cs = core.SelectGreedyOneToOne(res.Matrix, op.effective()) })
		t += suggest.time(func() { core.SuggestThreshold(res.Matrix) })
		pairsScored += float64(res.Matrix.Pairs())
		if _, ok := res.Matrix.(*core.SparseMatrix); ok {
			sparse++
		}
		out := pathPairs(res, cs)
		res.Release()
		t += addMatch.time(func() { storeArtifact(reg, op.A, op.B, ea.Fingerprint, eb.Fingerprint, op.effective(), out, "") })
		layerSum[i] = ms(t)
		if !slices.Equal(out, want[op]) {
			b.fail("%s×%s@%v: layer replay differs from Engine.Match", op.A, op.B, op.effective())
		}
	}
	pc1, s1 := r.pc.Stats(), r.st.Stats()
	b.checkJournal(st0, st1, s0, s1)
	n := float64(len(fx.ops))

	b.reportOverhead(untraced, layerSum)
	b.set("service.cache_hit_ratio", ratio(float64(st1.Cache.Hits-st0.Cache.Hits), float64(st1.Cache.Hits-st0.Cache.Hits+st1.Cache.Misses-st0.Cache.Misses)), "ratio")
	b.set("store.snapshots", float64(st1.Store.Snapshots-st0.Store.Snapshots), "count")
	b.set("core.profile_ns", profile.median(), "ns")
	b.set("core.profile_hit_ratio", hitRatio(pc0, pc1), "ratio")
	b.set("core.match_ns", match.median(), "ns")
	b.set("core.pairs_scored", pairsScored/n, "count")
	b.set("core.ns_per_pair", ratio(match.total(), pairsScored), "ns")
	b.set("core.sparse_share", sparse/n, "ratio")
	b.set("core.select_ns", sel.median(), "ns")
	b.set("core.suggest_ns", suggest.median(), "ns")
	b.set("registry.add_match_ns", addMatch.median(), "ns")
	r.reportStore(s0, s1, n, 0)
	return b.checkCounts(map[string]float64{
		"core.pairs_scored":    pairsScored,
		"store.commits_per_op": float64(s1.Commits - s0.Commits),
	})
}
