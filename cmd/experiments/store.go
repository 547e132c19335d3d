package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harmony/internal/registry"
	"harmony/internal/store"
	"harmony/internal/synth"
)

// runE14 prices durable persistence per accepted mutation: the paper's
// durable asset is the repository of schemas and validated mappings, so
// the cost that matters is "one more accepted artifact is safely on
// disk". The pre-store strategy — a full registry JSON snapshot — is
// O(corpus) per mutation; the WAL is O(delta). The experiment registers
// the 200-schema corpus, then commits a stream of accepted match
// artifacts under each strategy and reports the amortized per-mutation
// cost, plus what crash recovery costs afterwards. The acceptance gate
// (TestWALCheaperThanSnapshotPerMutation) enforces >= 10x between the
// amortizing WAL mode and snapshot-per-mutation.
func runE14(cfg config) {
	domains, perDomain, mutations := 8, 25, 60
	if cfg.quick {
		domains, perDomain, mutations = 4, 10, 20
	}
	schemas, _, _ := synth.Collection(cfg.seed, domains, perDomain)
	sa, sb := schemas[0], schemas[1]
	artifact := func(i int) registry.MatchArtifact {
		ea, eb := sa.Elements(), sb.Elements()
		return registry.MatchArtifact{
			SchemaA: sa.Name, SchemaB: sb.Name, Context: registry.ContextIntegration,
			Pairs: []registry.AssertedMatch{{
				PathA: ea[i%len(ea)].Path(), PathB: eb[i%len(eb)].Path(),
				Score: 0.9, Status: registry.StatusAccepted, ValidatedBy: "oracle",
			}},
		}
	}
	load := func(reg *registry.Registry) {
		for _, s := range schemas {
			must(reg.AddSchema(s, "e14"))
		}
	}

	fmt.Printf("workload:  %d schemata, %d accepted-artifact mutations per strategy\n\n",
		len(schemas), mutations)
	fmt.Printf("%-28s %14s %14s\n", "strategy", "per-mutation", "disk-bytes/op")

	// Baseline: full JSON snapshot after every mutation (what per-op
	// durability costs without a log).
	{
		dir, err := os.MkdirTemp("", "e14-snap")
		must(err)
		defer os.RemoveAll(dir)
		reg := registry.New()
		load(reg)
		path := filepath.Join(dir, "registry.json")
		start := time.Now()
		var bytesWritten int64
		for i := 0; i < mutations; i++ {
			_, err := reg.AddMatch(artifact(i))
			must(err)
			data, err := reg.SnapshotView(nil).Encode()
			must(err)
			must(registry.WriteFileAtomic(path, data))
			bytesWritten += int64(len(data))
		}
		per := time.Since(start) / time.Duration(mutations)
		fmt.Printf("%-28s %14s %14d\n", "snapshot-per-mutation", per.Round(time.Microsecond), bytesWritten/int64(mutations))
	}

	// WAL strategies: per-op journal commits under each fsync policy.
	var recoverDir string
	for _, policy := range []store.FsyncPolicy{store.FsyncPerCommit, store.FsyncInterval, store.FsyncOff} {
		dir, err := os.MkdirTemp("", "e14-wal")
		must(err)
		if policy == store.FsyncPerCommit {
			recoverDir = dir
		} else {
			defer os.RemoveAll(dir)
		}
		st, err := store.Open(store.Options{Dir: dir, Fsync: policy})
		must(err)
		reg := st.Registry()
		load(reg)
		must(st.Snapshot()) // compact the registration prefix away
		before := st.Stats().AppendedBytes
		start := time.Now()
		for i := 0; i < mutations; i++ {
			_, err := reg.AddMatch(artifact(i))
			must(err)
		}
		elapsed := time.Since(start)
		per := elapsed / time.Duration(mutations)
		bytesPer := (st.Stats().AppendedBytes - before) / uint64(mutations)
		must(st.Close())
		fmt.Printf("%-28s %14s %14d\n", "wal (fsync="+string(policy)+")", per.Round(time.Microsecond), bytesPer)
	}
	defer os.RemoveAll(recoverDir)

	// Crash recovery off the fsync-per-commit directory: snapshot load of
	// the corpus plus replay of the mutation tail.
	start := time.Now()
	st, err := store.Open(store.Options{Dir: recoverDir})
	must(err)
	recovery := time.Since(start)
	stats := st.Stats()
	fmt.Printf("\nrecovery:  %d schemata + %d replayed records in %s (torn tail: %v)\n",
		st.Registry().Len(), stats.Replayed, recovery.Round(time.Millisecond), stats.RecoveredTornTail)
	must(st.Close())
	fmt.Printf("gate: amortized WAL cost must be >= 10x cheaper than snapshot-per-mutation\n")
}
