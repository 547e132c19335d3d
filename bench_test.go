package harmony

// One testing.B benchmark per experiment in EXPERIMENTS.md (E1-E10), plus
// micro-benchmarks of the engine's hot paths. The heavyweight fixtures
// (the calibrated 1378x784 case study and its full match) are built once
// and shared.
//
// Run with: go test -bench=. -benchmem
// (BenchmarkE1FullMatch performs a full million-pair match per iteration
// and takes several seconds per op by design — it regenerates the paper's
// 10.2 s headline.)

import (
	"context"
	"io"
	"sync"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/corpus"
	"harmony/internal/export"
	"harmony/internal/obs"
	"harmony/internal/partition"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/search"
	"harmony/internal/service"
	"harmony/internal/summarize"
	"harmony/internal/synth"
	"harmony/internal/workflow"
)

// caseStudyThreshold mirrors cmd/experiments: the histogram-chosen
// operating point for the evidence-rich case-study workload.
const caseStudyThreshold = 0.74

var benchCase struct {
	once   sync.Once
	sa, sb *schema.Schema
	truth  *synth.Truth
	res    *core.Result
	sumA   *summarize.Summary
	sumB   *summarize.Summary
}

func caseFixture(b *testing.B) *struct {
	once   sync.Once
	sa, sb *schema.Schema
	truth  *synth.Truth
	res    *core.Result
	sumA   *summarize.Summary
	sumB   *summarize.Summary
} {
	b.Helper()
	benchCase.once.Do(func() {
		benchCase.sa, benchCase.sb, benchCase.truth = synth.CaseStudy(42)
		benchCase.res = core.PresetHarmony().Match(benchCase.sa, benchCase.sb)
		benchCase.sumA = summarize.FromRoots(benchCase.sa)
		benchCase.sumB = summarize.FromRoots(benchCase.sb)
	})
	return &benchCase
}

// BenchmarkE1FullMatch regenerates E1: the fully automated 1378x784 match
// (paper: 10.2 s). One op = one complete match including preprocessing.
// The result is released so every iteration sees the same matrix-pool
// state — its E16 control below must differ only in the obs toggle, not
// in allocator regime.
func BenchmarkE1FullMatch(b *testing.B) {
	sa, sb, _ := synth.CaseStudy(42)
	eng := core.PresetHarmony()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Match(sa, sb).Release()
	}
	b.ReportMetric(float64(sa.Len()*sb.Len()), "pairs/op")
}

// BenchmarkE1FullMatchWarm is E17's steady-state: the same 1378x784
// match served through a pre-warmed compiled-profile cache, plus
// Result.Release returning the dense matrix to the pool. This is the
// daemon's serving regime — schemas register once and are matched many
// times — so per-op cost is only the pair-dependent work (joint IDF,
// voting, propagation) with near-zero steady-state allocations.
func BenchmarkE1FullMatchWarm(b *testing.B) {
	sa, sb, _ := synth.CaseStudy(42)
	pc := core.NewProfileCache(core.DefaultProfileCacheSize)
	eng := core.PresetHarmony().WithOptions(core.WithProfileCache(pc))
	// Two warm-up matches: the first fills the profile cache, the second
	// runs against a warm name-similarity memo and matrix pool, so the
	// timed loop measures the steady serving state.
	eng.Match(sa, sb).Release()
	eng.Match(sa, sb).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Match(sa, sb).Release()
	}
	b.ReportMetric(float64(sa.Len()*sb.Len()), "pairs/op")
}

// BenchmarkE1FullMatchUninstrumented is E16's control: the same match
// with the obs metric mutators compiled in but globally disabled. The
// delta against BenchmarkE1FullMatch is the full observability overhead
// on the hot path (EXPERIMENTS.md pins it under 2%). The engine batches
// every counter into a handful of atomic adds per match — there are no
// per-pair metric updates — so the two benchmarks must track each other;
// BENCH_8's 50% "gap" was the two loops running in different matrix-pool
// regimes, which the Release parity above removes.
func BenchmarkE1FullMatchUninstrumented(b *testing.B) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	sa, sb, _ := synth.CaseStudy(42)
	eng := core.PresetHarmony()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Match(sa, sb).Release()
	}
	b.ReportMetric(float64(sa.Len()*sb.Len()), "pairs/op")
}

// BenchmarkE1SparseMatch is E1's sparse counterpart (E12 in
// EXPERIMENTS.md): the same 1378x784 match with sparse candidate-pair
// scoring at the default budget — candidate retrieval plus voter scoring
// of ~7 % of the pairs. TestRegressionSparseVsDense enforces the >= 3x
// wall-clock advantage over BenchmarkE1FullMatch at matched F-measure.
func BenchmarkE1SparseMatch(b *testing.B) {
	sa, sb, _ := synth.CaseStudy(42)
	eng := core.PresetHarmony().WithOptions(core.WithSparse(core.DefaultSparseBudget))
	b.ResetTimer()
	var scored int
	for i := 0; i < b.N; i++ {
		res := eng.Match(sa, sb)
		scored = res.Matrix.Pairs()
	}
	b.ReportMetric(float64(scored), "pairs/op")
}

// BenchmarkE2Partition regenerates E2: deriving the {SA-only, SB-only,
// matched} decision partition from a scored matrix.
func BenchmarkE2Partition(b *testing.B) {
	f := caseFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := partition.FromResult(f.res, caseStudyThreshold, true)
		if p.Stats().SizeB != 784 {
			b.Fatal("bad partition")
		}
	}
}

// BenchmarkE3ConceptLift regenerates E3: lifting element matches to
// concept level over the 140x51 concept summaries.
func BenchmarkE3ConceptLift(b *testing.B) {
	f := caseFixture(b)
	opts := summarize.LiftOptions{Threshold: caseStudyThreshold, MinSupport: 3, MinCoverage: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarize.LiftOneToOne(summarize.Lift(f.res, f.sumA, f.sumB, opts))
	}
}

// BenchmarkE3Workbook measures building the two-sheet outer-join workbook
// (the 167-row concept sheet plus the element sheet).
func BenchmarkE3Workbook(b *testing.B) {
	f := caseFixture(b)
	opts := summarize.LiftOptions{Threshold: caseStudyThreshold, MinSupport: 3, MinCoverage: 0.3}
	cms := summarize.LiftOneToOne(summarize.Lift(f.res, f.sumA, f.sumB, opts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := export.Build(f.sa, f.sb, f.sumA, f.sumB, cms, nil)
		if wb.ConceptRows() == 0 {
			b.Fatal("empty workbook")
		}
	}
}

// BenchmarkE4Increment regenerates E4's unit of work: one concept-at-a-time
// increment (the paper's 10^4-10^5-pair sub-tree match).
func BenchmarkE4Increment(b *testing.B) {
	f := caseFixture(b)
	sv, dv := core.Preprocess(f.sa, f.sb)
	eng := core.PresetHarmony()
	concept := f.sumA.Concepts()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MatchElements(sv, dv, concept.Members)
	}
	b.ReportMetric(float64(concept.Size()*f.sb.Len()), "pairs/op")
}

// BenchmarkE5Vocabulary regenerates E5's aggregation step: building the
// 2^5-1-cell comprehensive vocabulary from pairwise selections over the
// five expanded-study schemata.
func BenchmarkE5Vocabulary(b *testing.B) {
	schemas, _ := synth.Expanded(42)
	eng := core.PresetHarmony()
	var pairs []partition.Correspondences
	for i := 0; i < len(schemas); i++ {
		for j := i + 1; j < len(schemas); j++ {
			res := eng.Match(schemas[i], schemas[j])
			pairs = append(pairs, partition.Correspondences{
				I: i, J: j, Pairs: core.SelectGreedyOneToOne(res.Matrix, 0.4),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := partition.Build(schemas, pairs)
		if err != nil || v.NumCells() == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Presets regenerates E6's cost dimension: one preset match
// over a mid-size pair per configuration, so relative engine costs are
// visible alongside the quality table printed by cmd/experiments.
func BenchmarkE6Presets(b *testing.B) {
	sa, _ := synth.Custom("L", schema.FormatRelational, synth.StyleRelational, 1, 40, 6, 0)
	sb, _ := synth.Custom("R", schema.FormatXML, synth.StyleXML, 2, 30, 6, 20)
	for name, mk := range core.Presets() {
		eng := mk()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Match(sa, sb)
			}
			b.ReportMetric(float64(sa.Len()*sb.Len()), "pairs/op")
		})
	}
}

// BenchmarkE7Clustering regenerates E7: quick distances plus agglomerative
// clustering over the 24-schema repository.
func BenchmarkE7Clustering(b *testing.B) {
	schemas, _, _ := synth.Collection(42, 4, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cluster.QuickDistances(schemas)
		dg := cluster.Agglomerative(d, cluster.Average)
		if len(dg.Cut(4)) != len(schemas) {
			b.Fatal("bad clustering")
		}
	}
}

// BenchmarkE8Search regenerates E8: schema-as-query search over the
// repository index.
func BenchmarkE8Search(b *testing.B) {
	schemas, _, _ := synth.Collection(42, 4, 6)
	ix := search.NewIndex()
	for _, s := range schemas {
		ix.Add(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ix.SearchSchema(schemas[i%len(schemas)], 5); len(got) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkE9Scaling regenerates the E9 scaling figure: match cost vs
// candidate pairs.
func BenchmarkE9Scaling(b *testing.B) {
	sizes := []struct {
		name string
		a, b int
	}{
		{"2x2concepts", 2, 2},
		{"10x10concepts", 10, 10},
		{"40x30concepts", 40, 30},
		{"140x80concepts", 140, 80},
	}
	eng := core.PresetHarmony()
	for _, sz := range sizes {
		sa, _ := synth.Custom("L", schema.FormatRelational, synth.StyleRelational, 1, sz.a, 6, 0)
		sb, _ := synth.Custom("R", schema.FormatXML, synth.StyleXML, 2, sz.b, 6, sz.a/2)
		b.Run(sz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Match(sa, sb)
			}
			b.ReportMetric(float64(sa.Len()*sb.Len()), "pairs/op")
		})
	}
}

// BenchmarkE10WorkflowTask regenerates E10's unit: executing one workflow
// task (match increment + review pass) with a scripted reviewer.
func BenchmarkE10WorkflowTask(b *testing.B) {
	f := caseFixture(b)
	eng := core.PresetHarmony()
	reviewer := acceptAllReviewer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		session, err := workflow.NewSession(eng, f.sa, f.sb, f.sumA, caseStudyThreshold)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := session.RunTask(0, reviewer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceCacheHit measures the serving hot path of the
// match-as-a-service layer: a fingerprint-keyed cache hit, which is what a
// repeated enterprise match costs once its first computation is resident.
func BenchmarkServiceCacheHit(b *testing.B) {
	sa, sb, _ := synth.Pair(7, 8, 8, 4, 5)
	eng := core.PresetHarmony()
	cache := service.NewCache(16)
	key := service.CacheKey{
		FingerprintA: sa.Fingerprint(),
		FingerprintB: sb.Fingerprint(),
		Preset:       "harmony",
		Threshold:    0.4,
	}
	compute := func() (*service.MatchOutcome, error) {
		res := eng.Match(sa, sb)
		out := &service.MatchOutcome{}
		for _, c := range core.SelectGreedyOneToOne(res.Matrix, 0.4) {
			out.Pairs = append(out.Pairs, service.MatchPair{
				PathA: res.Src.View(c.Src).El.Path(),
				PathB: res.Dst.View(c.Dst).El.Path(),
				Score: c.Score,
			})
		}
		return out, nil
	}
	if _, _, err := cache.GetOrCompute(key, compute); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, cached, err := cache.GetOrCompute(key, compute)
		if err != nil || !cached || out == nil {
			b.Fatalf("cached=%v err=%v", cached, err)
		}
	}
}

// BenchmarkQueueThroughput measures the job engine's dispatch overhead:
// how fast trivial jobs flow through submit → worker → terminal state.
func BenchmarkQueueThroughput(b *testing.B) {
	q := service.NewQueue(4, 1024)
	defer q.Close()
	noop := func(ctx context.Context) (any, error) { return nil, nil }
	b.ResetTimer()
	var last string
	for i := 0; i < b.N; i++ {
		id, err := q.Submit("noop", noop)
		for err != nil { // backlog full: let the workers drain
			if _, ok := q.Wait(last); !ok {
				b.Fatal("lost job")
			}
			id, err = q.Submit("noop", noop)
		}
		last = id
	}
	if job, ok := q.Wait(last); !ok || job.State != service.JobDone {
		b.Fatalf("final job %+v ok=%v", job, ok)
	}
	b.StopTimer()
}

// ---------------------------------------------------------------------------
// Corpus-scale matching benchmarks: the perf trajectory of the blocked
// top-k pipeline is tracked from day one (see internal/corpus).

var benchCorpus struct {
	once sync.Once
	reg  *registry.Registry
	qs   []*schema.Schema
}

// corpusFixture builds the 200-schema synthetic repository once.
func corpusFixture(b *testing.B) (*registry.Registry, []*schema.Schema) {
	b.Helper()
	benchCorpus.once.Do(func() {
		schemas, _, _ := synth.Collection(42, 8, 25)
		reg := registry.New()
		for _, s := range schemas {
			if err := reg.AddSchema(s, "synth"); err != nil {
				panic(err)
			}
		}
		benchCorpus.reg = reg
		benchCorpus.qs = schemas
	})
	return benchCorpus.reg, benchCorpus.qs
}

// BenchmarkCorpusTopK measures one blocked top-5 corpus query over the
// 200-schema repository: blocking + sharded engine scoring with early
// exit. Compare against BenchmarkE1FullMatch-scale exhaustive costs: the
// blocked query runs ~20 engine matches instead of 199.
func BenchmarkCorpusTopK(b *testing.B) {
	reg, qs := corpusFixture(b)
	eng := core.PresetHarmony()
	p := corpus.NewPipeline(reg, nil)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.TopK(ctx, eng, qs[i%len(qs)], corpus.Config{Candidates: 20, TopK: 5})
		if err != nil || len(res.Matches) == 0 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkBlockingPrune isolates the blocking stage: BM25 retrieval plus
// the token-overlap prefilter over the 200-schema corpus, the cost every
// corpus query pays before any engine work.
func BenchmarkBlockingPrune(b *testing.B) {
	reg, qs := corpusFixture(b)
	p := corpus.NewPipeline(reg, nil)
	// Warm the profile memo so the benchmark measures the steady state.
	if _, _, err := p.Candidates(qs[0], corpus.Config{Candidates: 20}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, _, err := p.Candidates(qs[i%len(qs)], corpus.Config{Candidates: 20})
		if err != nil || len(cands) == 0 {
			b.Fatalf("cands=%d err=%v", len(cands), err)
		}
	}
}

type acceptAllReviewer struct{}

func (acceptAllReviewer) Name() string { return "bench" }
func (acceptAllReviewer) Review(_, _ *schema.Element, _ float64) workflow.Decision {
	return workflow.Decision{Accept: true}
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks.

// BenchmarkPairScore measures the full per-pair cost: all six voters plus
// the merger, the inner loop of every match.
func BenchmarkPairScore(b *testing.B) {
	f := caseFixture(b)
	sv, dv := core.Preprocess(f.sa, f.sb)
	eng := core.PresetHarmony()
	voters := eng.Voters()
	weights := make([]float64, len(voters))
	votes := make([]core.Vote, len(voters))
	for i, wv := range voters {
		weights[i] = wv.Weight
	}
	src, dst := sv.View(1), dv.View(1)
	merger := eng.Merger()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, wv := range voters {
			votes[k] = wv.Voter.Vote(src, dst)
		}
		merger.Merge(votes, weights)
	}
}

// BenchmarkPreprocess measures linguistic preprocessing of the full case
// study (tokenization, stemming, TF-IDF vectors for 2162 elements).
func BenchmarkPreprocess(b *testing.B) {
	f := caseFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Preprocess(f.sa, f.sb)
	}
}

// BenchmarkSpreadsheetExport measures CSV serialization of the full
// element sheet.
func BenchmarkSpreadsheetExport(b *testing.B) {
	f := caseFixture(b)
	wb := export.Build(f.sa, f.sb, f.sumA, f.sumB, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wb.WriteElementCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrixAbove measures Correspondence extraction from the scored
// million-pair case-study matrix. Above pre-sizes its result from a
// counting pass; -benchmem shows the win over append-growth (one
// allocation per call instead of a dozen reallocations of a slice that
// ends up thousands of entries long).
func BenchmarkMatrixAbove(b *testing.B) {
	f := caseFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.res.Matrix.Above(caseStudyThreshold)) == 0 {
			b.Fatal("no correspondences")
		}
	}
}

// BenchmarkSelection compares the selection policies on the scored
// case-study matrix (DESIGN.md ablation #4).
func BenchmarkSelection(b *testing.B) {
	f := caseFixture(b)
	b.Run("threshold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SelectThreshold(f.res.Matrix, caseStudyThreshold)
		}
	})
	b.Run("greedy-one-to-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SelectGreedyOneToOne(f.res.Matrix, caseStudyThreshold)
		}
	})
	b.Run("stable-marriage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SelectStableMarriage(f.res.Matrix, caseStudyThreshold)
		}
	})
}
