package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"harmony/internal/core"
	"harmony/internal/corpus"
	"harmony/internal/registry"
	"harmony/internal/synth"
)

// runE11 measures the corpus-scale matching pipeline: one query schema
// against a repository, blocked top-k versus the exhaustive baseline —
// the latency/quality trade the paper's "use one's target schema as the
// query term" workflow lives on. Quality is top-k agreement with the
// exhaustive ranking (which scores every registered schema with the same
// engine and is therefore ground truth for the blocked run).
func runE11(cfg config) {
	domains, perDomain, queries := 8, 25, 3
	if cfg.quick {
		domains, perDomain, queries = 4, 6, 2
	}
	schemas, _, _ := synth.Collection(cfg.seed, domains, perDomain)
	reg := registry.New()
	for _, s := range schemas {
		if err := reg.AddSchema(s, "steward"); err != nil {
			fmt.Fprintln(os.Stderr, "E11:", err)
			return
		}
	}
	eng := core.PresetNameOnly()
	const k = 5
	p := corpus.NewPipeline(reg, nil)
	ctx := context.Background()

	var blockedTime, exhaustTime time.Duration
	var engineRuns int
	agree, total := 0, 0
	for qi := 0; qi < queries; qi++ {
		q := schemas[(qi*len(schemas))/queries]

		start := time.Now()
		blocked, err := p.TopK(ctx, eng, q, corpus.Config{Candidates: 20, TopK: k})
		blockedTime += time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E11:", err)
			return
		}
		engineRuns += blocked.Stats.EngineRuns

		start = time.Now()
		exhaustive, err := p.TopK(ctx, eng, q, corpus.Config{TopK: k, Exhaustive: true})
		exhaustTime += time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, "E11:", err)
			return
		}
		want := map[string]bool{}
		for _, m := range exhaustive.Matches {
			want[m.Schema] = true
		}
		for _, m := range blocked.Matches {
			if want[m.Schema] {
				agree++
			}
		}
		total += k
	}

	fmt.Printf("corpus: %d schemata, %d queries, top-%d (engine preset name-only)\n",
		len(schemas), queries, k)
	fmt.Printf("%-28s %12s %14s\n", "mode", "wall-clock", "engine runs")
	fmt.Printf("%-28s %12v %14d\n", "exhaustive", exhaustTime.Round(time.Millisecond), queries*(len(schemas)-1))
	fmt.Printf("%-28s %12v %14d\n", "blocked (budget 20)",
		blockedTime.Round(time.Millisecond), engineRuns)
	fmt.Printf("speedup: %.1fx   top-%d recall vs exhaustive: %.2f\n",
		float64(exhaustTime)/float64(blockedTime), k, float64(agree)/float64(total))
	fmt.Println("\nexpected shape: >= 5x speedup at recall >= 0.9 — blocking prunes the")
	fmt.Println("corpus without changing what the engine would have ranked on top")
}
