package main

import (
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/evolve"
	"harmony/internal/registry"
	"harmony/internal/synth"
)

// runE13 measures incremental artifact migration against the full-rematch
// baseline across churn rates: a registered schema pair with a
// ground-truth-accepted artifact takes a version bump, and the evolution
// path (structural diff + artifact migration + scoped re-match of dirty
// elements) is timed against re-running the whole match engine on the new
// version. Preservation is the fraction of still-valid accepted pairs that
// survive at their correct new paths; pairs is the share of the full
// match's scored element pairs the scoped re-match scored. The acceptance
// gate (TestIncrementalBeatsFullRematch) enforces the 10%-churn row's
// pairs and preservation.
func runE13(cfg config) {
	conceptsA, conceptsB := 120, 100
	if cfg.quick {
		conceptsA, conceptsB = 60, 50
	}
	a, b, truth := synth.Pair(cfg.seed, conceptsA, conceptsB, (conceptsA*3)/5, 7)

	fmt.Printf("workload:  %s %d x %s %d elements; validated artifact from ground truth\n",
		a.Name, a.Len(), b.Name, b.Len())
	fmt.Printf("%-10s %9s %9s %8s %7s %9s %9s %7s %9s\n",
		"churn", "full", "incr", "speedup", "pairs", "dirty", "kept+rep", "dropped", "preserved")

	for _, rate := range []float64{0.05, 0.10, 0.20} {
		reg := registry.New()
		must(reg.AddSchema(a, ""))
		must(reg.AddSchema(b, ""))
		ma := &registry.MatchArtifact{SchemaA: a.Name, SchemaB: b.Name, Context: registry.ContextIntegration}
		for _, p := range truth.Pairs(a, b) {
			ma.Pairs = append(ma.Pairs, registry.AssertedMatch{
				PathA: p[0], PathB: p[1], Score: 0.85,
				Status: registry.StatusAccepted, ValidatedBy: "oracle",
			})
		}
		id, err := reg.AddMatch(*ma)
		must(err)

		a2, _, log := synth.Evolve(a, truth, cfg.seed+int64(1000*rate), synth.ChurnMixed(rate))

		// Each path runs on a fresh engine, so neither reuses profiles
		// the other (or an earlier churn rate) compiled.
		eng := core.PresetHarmony()
		startInc := time.Now()
		rep, d, err := evolve.Upgrade(reg, a2, "", evolve.Options{Engine: eng})
		must(err)
		_, err = evolve.Rematch(reg, eng, d, rep, 0.5)
		must(err)
		incremental := time.Since(startInc)

		fullEng := core.PresetHarmony()
		startFull := time.Now()
		res := fullEng.Match(a2, b)
		_ = core.SelectGreedyOneToOne(res.Matrix, 0.5)
		full := time.Since(startFull)

		stored, _ := reg.Match(id)
		got := make(map[string]string, len(stored.Pairs))
		for _, p := range stored.Pairs {
			if p.Status == registry.StatusAccepted {
				got[p.PathA] = p.PathB
			}
		}
		shouldSurvive, preserved := 0, 0
		for _, p := range ma.Pairs {
			newPath, ok := log.Mapping[p.PathA]
			if !ok {
				continue
			}
			shouldSurvive++
			if got[newPath] == p.PathB {
				preserved++
			}
		}
		fmt.Printf("%-10s %8.2fs %8.2fs %7.1fx %6.1f%% %9d %9d %7d %8.1f%%\n",
			fmt.Sprintf("%.0f%%", 100*rate), full.Seconds(), incremental.Seconds(),
			full.Seconds()/incremental.Seconds(), 100*float64(rep.PairsScored)/float64(res.Scored), len(rep.DirtyPaths),
			rep.PairsKept+rep.PairsRepathed, rep.PairsDropped,
			100*float64(preserved)/float64(shouldSurvive))
	}
	fmt.Printf("gate: at 10%% churn, the scoped re-match scores <= 25%% of the full match's pairs at >= 95%% preservation\n")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
