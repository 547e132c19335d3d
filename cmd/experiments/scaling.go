package main

import (
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/schema"
	"harmony/internal/summarize"
	"harmony/internal/synth"
	"harmony/internal/workflow"
)

// runE9 regenerates the scaling curve behind §3.1's framing of 10^6
// potential matches as "industrial scale": wall time vs candidate pairs,
// which should grow roughly linearly in |S1|x|S2|.
func runE9(cfg config) {
	sizes := []struct{ a, b int }{ // concepts per side; ~7 elements per concept
		{2, 2}, {5, 5}, {10, 10}, {20, 20}, {40, 30}, {80, 50}, {140, 80},
	}
	if cfg.quick {
		sizes = sizes[:5]
	}
	fmt.Printf("%10s %10s %12s %14s\n", "|S1|", "|S2|", "pairs", "time")
	for _, sz := range sizes {
		sa, _ := synth.Custom("L", schema.FormatRelational, synth.StyleRelational, cfg.seed, sz.a, 6, 0)
		sb, _ := synth.Custom("R", schema.FormatXML, synth.StyleXML, cfg.seed+1, sz.b, 6, sz.a/2)
		start := time.Now()
		core.PresetHarmony().Match(sa, sb)
		elapsed := time.Since(start)
		pairs := sa.Len() * sb.Len()
		fmt.Printf("%10d %10d %12d %14s\n", sa.Len(), sb.Len(), pairs, elapsed.Round(time.Millisecond))
	}
	fmt.Println("\nexpected shape: time ~ linear in candidate pairs (per-pair voter cost dominates)")
}

// runE10 quantifies Lesson #1's ergonomic claim: the concept-at-a-time
// workflow covers the same cross product as a flat match while keeping
// every human-facing increment small enough to survey, and it keeps at
// least one side of every increment a single coherent concept.
func runE10(cfg config) {
	sa, sb, _, res, _ := caseStudy(cfg)
	sumA := summarize.FromRoots(sa)
	session, err := workflow.NewSession(core.PresetHarmony(), sa, sb, sumA, caseStudyThreshold)
	if err != nil {
		fmt.Println("E10:", err)
		return
	}
	total := 0
	maxInc := 0
	var incs []int
	for _, t := range session.Tasks() {
		total += t.CandidatesConsidered
		if t.CandidatesConsidered > maxInc {
			maxInc = t.CandidatesConsidered
		}
		incs = append(incs, t.CandidatesConsidered)
	}
	flat := sa.Len() * sb.Len()
	flatQueue := len(core.SelectThreshold(res.Matrix, caseStudyThreshold))

	fmt.Printf("flat MATCH(SA,SB):            %d candidate pairs in one sitting; review queue %d lines\n", flat, flatQueue)
	fmt.Printf("concept-at-a-time:            %d increments covering %d pairs (same cross product)\n", len(incs), total)
	fmt.Printf("largest single increment:     %d pairs (%.1f%% of flat)\n", maxInc, 100*float64(maxInc)/float64(flat))
	fmt.Printf("increment size distribution:  min %d  median %d  max %d\n", minOf(incs), medianOf(incs), maxInc)
	fmt.Printf("paper: increments of 10^4 .. 10^5 pairs; engineers kept one concept fully on screen per increment\n")
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func medianOf(xs []int) int {
	sorted := append([]int(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
