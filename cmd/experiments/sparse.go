package main

import (
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/eval"
)

// runE12 measures the sparse candidate-pair fast path against dense
// scoring on the case-study workload: wall-clock, scored-pair fraction,
// and match quality at the calibrated threshold, across a budget sweep.
// The acceptance gate (TestRegressionSparseVsDense) enforces the default
// budget's pairs-scored share and F-measure; this experiment shows the
// whole trade-off curve.
func runE12(cfg config) {
	sa, sb, truth, res, elapsed := caseStudy(cfg)
	pairs := sa.Len() * sb.Len()
	denseSel := core.SelectGreedyOneToOne(res.Matrix, caseStudyThreshold)
	densePRF := eval.ScoreCorrespondences(truth, sa, sb, denseSel)

	fmt.Printf("workload:  SA %d x SB %d = %d potential pairs, threshold %.2f\n",
		sa.Len(), sb.Len(), pairs, caseStudyThreshold)
	fmt.Printf("%-18s %10s %10s %8s %8s %8s %8s\n",
		"mode", "wall", "pairs", "scored%", "P", "R", "F1")
	fmt.Printf("%-18s %9.2fs %10d %7.1f%% %8.3f %8.3f %8.3f\n",
		"dense", elapsed.Seconds(), pairs, 100.0, densePRF.Precision, densePRF.Recall, densePRF.F1)

	budgets := []int{16, 32, core.DefaultSparseBudget, 128}
	if cfg.quick {
		budgets = []int{core.DefaultSparseBudget}
	}
	for _, budget := range budgets {
		eng := core.PresetHarmony().WithOptions(core.WithSparse(budget))
		start := time.Now()
		sres := eng.Match(sa, sb)
		wall := time.Since(start)
		sel := core.SelectGreedyOneToOne(sres.Matrix, caseStudyThreshold)
		prf := eval.ScoreCorrespondences(truth, sa, sb, sel)
		scored := sres.Matrix.Pairs()
		fmt.Printf("%-18s %9.2fs %10d %7.1f%% %8.3f %8.3f %8.3f\n",
			fmt.Sprintf("sparse (b=%d)", budget), wall.Seconds(), scored,
			100*float64(scored)/float64(pairs), prf.Precision, prf.Recall, prf.F1)
		if budget == core.DefaultSparseBudget {
			fmt.Printf("default budget:    %.1fx speedup, F-measure drift %+.4f vs dense (gate: <= 10%% of pairs scored, F within 0.02)\n",
				elapsed.Seconds()/wall.Seconds(), prf.F1-densePRF.F1)
		}
	}
}
