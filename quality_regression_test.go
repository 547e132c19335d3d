package harmony

// Golden quality-regression harness: the experiments' precision / recall /
// F-measure numbers, frozen as golden values, guarding every future engine
// refactor. Each test recomputes one experiment-shaped workload (E1/E2/E5
// style, at -quick scale where the full size is too heavy for every test
// run) and fails when any metric drifts more than qualityTolerance from
// the checked-in value — drift in either direction, because a silent
// quality jump usually means the workload or the scorer changed, not that
// the matcher got smarter.
//
// CI runs these as a dedicated gate: go test -run Regression .
// The golden values were measured at seed 42 on the dense engine; see
// EXPERIMENTS.md for the calibration narrative.

import (
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/eval"
	"harmony/internal/partition"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

// qualityTolerance is the allowed absolute drift per metric.
const qualityTolerance = 0.02

// regressionCase shares one timed dense case-study match between the
// full-scale regression tests, so the gate pays for the dominant cost
// (a dense 1378×784 match) once per run.
var regressionCase struct {
	once   sync.Once
	sa, sb *schema.Schema
	truth  *synth.Truth
	res    *core.Result
	wall   time.Duration
}

func denseCaseStudy() (sa, sb *schema.Schema, truth *synth.Truth, res *core.Result, wall time.Duration) {
	c := &regressionCase
	c.once.Do(func() {
		c.sa, c.sb, c.truth = synth.CaseStudy(42)
		start := time.Now()
		c.res = core.PresetHarmony().Match(c.sa, c.sb)
		c.wall = time.Since(start)
	})
	return c.sa, c.sb, c.truth, c.res, c.wall
}

// goldenPRF is one frozen precision/recall/F1 triple.
type goldenPRF struct {
	precision, recall, f1 float64
}

// checkPRF fails the test when got drifts from want by more than the
// tolerance on any metric.
func checkPRF(t *testing.T, name string, got eval.PRF, want goldenPRF) {
	t.Helper()
	type metric struct {
		label     string
		got, want float64
	}
	for _, m := range []metric{
		{"precision", got.Precision, want.precision},
		{"recall", got.Recall, want.recall},
		{"F1", got.F1, want.f1},
	} {
		if diff := m.got - m.want; diff > qualityTolerance || diff < -qualityTolerance {
			t.Errorf("%s: %s %.4f drifted from golden %.4f by %+.4f (tolerance %.2f)",
				name, m.label, m.got, m.want, diff, qualityTolerance)
		}
	}
	t.Logf("%s: %s (golden P=%.3f R=%.3f F1=%.3f)", name, got, want.precision, want.recall, want.f1)
}

// TestRegressionQuickPair is the E2-style gate at -quick scale: a 420×350
// documented pair workload matched densely at the case-study operating
// point.
func TestRegressionQuickPair(t *testing.T) {
	a, b, truth := synth.Pair(42, 60, 50, 30, 6)
	res := core.PresetHarmony().Match(a, b)
	sel := core.SelectGreedyOneToOne(res.Matrix, caseStudyThreshold)
	checkPRF(t, "quick pair @0.74", eval.ScoreCorrespondences(truth, a, b, sel),
		goldenPRF{precision: 0.966, recall: 0.789, f1: 0.869})
}

// TestRegressionExpandedVocabulary is the E5-style gate: the five-schema
// expanded study's 10 pairwise one-to-one selections at the default
// threshold, pooled into one measurement.
func TestRegressionExpandedVocabulary(t *testing.T) {
	if testing.Short() {
		t.Skip("ten mid-size matches in -short mode")
	}
	schemas, truth := synth.Expanded(42)
	eng := core.PresetHarmony()
	tp, fp, fn := 0, 0, 0
	for i := 0; i < len(schemas); i++ {
		for j := i + 1; j < len(schemas); j++ {
			res := eng.Match(schemas[i], schemas[j])
			sel := core.SelectGreedyOneToOne(res.Matrix, DefaultThreshold)
			p := eval.ScoreCorrespondences(truth, schemas[i], schemas[j], sel)
			tp += p.TP
			fp += p.FP
			fn += p.FN
		}
	}
	got := eval.PRF{TP: tp, FP: fp, FN: fn}
	got.Precision = float64(tp) / float64(tp+fp)
	got.Recall = float64(tp) / float64(tp+fn)
	got.F1 = 2 * got.Precision * got.Recall / (got.Precision + got.Recall)
	checkPRF(t, "expanded pooled @0.4", got,
		goldenPRF{precision: 0.5054, recall: 0.9492, f1: 0.6596})
}

// TestRegressionCaseStudy is the E1/E2-style gate at full scale: the
// calibrated 1378×784 case study matched densely at 0.74, with both the
// ground-truth quality and the paper-shaped partition split frozen.
func TestRegressionCaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full case-study match in -short mode")
	}
	sa, sb, truth, res, _ := denseCaseStudy()
	sel := core.SelectGreedyOneToOne(res.Matrix, caseStudyThreshold)
	checkPRF(t, "case study @0.74", eval.ScoreCorrespondences(truth, sa, sb, sel),
		goldenPRF{precision: 0.875, recall: 0.813, f1: 0.843})

	st := partition.FromResult(res, caseStudyThreshold, true).Stats()
	matchedB := float64(st.MatchedB) / float64(st.SizeB)
	const goldenMatchedB = 0.3163 // 248/784; paper reports 34 %
	if diff := matchedB - goldenMatchedB; diff > qualityTolerance || diff < -qualityTolerance {
		t.Errorf("case study: matched-B fraction %.4f drifted from golden %.4f by %+.4f",
			matchedB, goldenMatchedB, diff)
	}
}

// TestRegressionSparseVsDense is the sparse fast path's acceptance gate:
// on the full case study, sparse scoring at the default budget must score
// at most a tenth of the pairs dense scoring does (maxSparsePairShare)
// while keeping the F-measure within qualityTolerance of dense. The gate
// is a work count, deterministic on any machine; the wall-clock times of
// both modes are logged, and BenchmarkE1SparseMatch /
// BenchmarkE1FullMatch measure them.
func TestRegressionSparseVsDense(t *testing.T) {
	if testing.Short() {
		t.Skip("full case-study matches in -short mode")
	}
	// Sparse mode scores 75,856 of the case study's 1,080,352 pairs
	// (7.0 %) at the default budget. A wall-clock ratio would move with
	// every change to the stages both modes share (propagation) and with
	// the load on the machine.
	const maxSparsePairShare = 0.10

	sa, sb, truth, dres, denseWall := denseCaseStudy()
	sparse := core.PresetHarmony().WithOptions(core.WithSparse(core.DefaultSparseBudget))
	start := time.Now()
	sres := sparse.Match(sa, sb)
	sparseWall := time.Since(start)

	sm, ok := sres.Matrix.(*core.SparseMatrix)
	if !ok {
		t.Fatalf("case study should run sparse, got %T", sres.Matrix)
	}
	dprf := eval.ScoreCorrespondences(truth, sa, sb,
		core.SelectGreedyOneToOne(dres.Matrix, caseStudyThreshold))
	sprf := eval.ScoreCorrespondences(truth, sa, sb,
		core.SelectGreedyOneToOne(sres.Matrix, caseStudyThreshold))

	all := sa.Len() * sb.Len()
	t.Logf("dense %v (F=%.4f) vs sparse %v (F=%.4f): %.2fx, %d of %d pairs scored (%.1f%%)",
		denseWall, dprf.F1, sparseWall, sprf.F1, denseWall.Seconds()/sparseWall.Seconds(),
		sm.Pairs(), all, 100*float64(sm.Pairs())/float64(all))

	if share := float64(sm.Pairs()) / float64(all); share > maxSparsePairShare {
		t.Errorf("sparse scored %d of %d pairs (%.1f%%), above the %.0f%% ceiling",
			sm.Pairs(), all, 100*share, 100*maxSparsePairShare)
	}
	if diff := sprf.F1 - dprf.F1; diff > qualityTolerance || diff < -qualityTolerance {
		t.Errorf("sparse F-measure %.4f drifted from dense %.4f by %+.4f (tolerance %.2f)",
			sprf.F1, dprf.F1, diff, qualityTolerance)
	}
}
