package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"harmony"
)

// runDiff is the diff subcommand: structural change set between two
// versions of a schema.
func runDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	oldPath := fs.String("old", "", "previous schema version file")
	newPath := fs.String("new", "", "next schema version file")
	renameThreshold := fs.Float64("rename-threshold", 0.5,
		"minimum engine confidence before an add+remove pair is declared a rename")
	preset := fs.String("preset", "harmony", "matcher preset for rename detection")
	asJSON := fs.Bool("json", false, "emit the change set as JSON")
	exitOn(fs.Parse(args))

	if *oldPath == "" || *newPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	oldS, err := loadSchema(*oldPath)
	exitOn(err)
	newS, err := loadSchema(*newPath)
	exitOn(err)
	m, err := harmony.NewMatcherWith(*preset, harmony.DefaultThreshold)
	exitOn(err)
	d := harmony.DiffSchemas(oldS, newS, harmony.DiffOptions{
		RenameThreshold: *renameThreshold,
		Engine:          m.Engine,
	})
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(d))
		return
	}
	fmt.Println(d.Summary())
	printChanges := func(label string, chs []harmony.SchemaChange, arrow bool) {
		for _, ch := range chs {
			switch {
			case arrow:
				fmt.Printf("  %-8s %s -> %s (%.2f)\n", label, ch.OldPath, ch.NewPath, ch.Score)
			case ch.NewPath != "":
				fmt.Printf("  %-8s %s\n", label, ch.NewPath)
			default:
				fmt.Printf("  %-8s %s\n", label, ch.OldPath)
			}
		}
	}
	printChanges("added", d.Added, false)
	printChanges("removed", d.Removed, false)
	printChanges("renamed", d.Renamed, true)
	printChanges("moved", d.Moved, true)
	for _, ch := range d.Retyped {
		fmt.Printf("  %-8s %s: %s -> %s\n", "retyped", ch.NewPath, ch.OldType, ch.NewType)
	}
}

// runEvolve is the evolve subcommand: version-bump a schema inside a
// durable store, migrating its stored match artifacts and re-matching
// only the dirty elements.
func runEvolve(args []string) {
	fs := flag.NewFlagSet("evolve", flag.ExitOnError)
	storeDir := fs.String("store-dir", "", "durable store directory (as written by harmonyd -store-dir)")
	schemaPath := fs.String("schema", "", "next schema version file")
	name := fs.String("name", "", "registered schema name (default: derived from the file name)")
	steward := fs.String("steward", "", "steward recorded on the new version")
	preset := fs.String("preset", "harmony", "matcher preset for rename detection and re-match")
	threshold := fs.Float64("threshold", harmony.DefaultThreshold, "confidence filter for re-match proposals")
	sparseBudget := fs.Int("sparse-budget", harmony.DefaultSparseBudget,
		"per-source candidate budget for the scoped sparse re-match (0 scores densely)")
	noRematch := fs.Bool("no-rematch", false, "skip the scoped re-match of dirty elements")
	dryRun := fs.Bool("dry-run", false, "report the migration without saving the registry")
	exitOn(fs.Parse(args))

	if *storeDir == "" || *schemaPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	// The upgrade batch is journaled durably (one atomic WAL record) as
	// it happens. A dry run must leave no trace: an existing store is
	// opened read-style with the journal detached, and an absent or empty
	// one is never created — it holds no schema to preview against.
	if *dryRun && storeDirEmpty(*storeDir) {
		exitOn(fmt.Errorf("dry run: store %s is empty", *storeDir))
	}
	st, err := harmony.OpenStore(harmony.StoreOptions{Dir: *storeDir})
	exitOn(err)
	reg := st.Registry()
	if *dryRun {
		reg.SetJournal(nil)
	}
	next, err := loadSchema(*schemaPath)
	exitOn(err)
	if *name != "" {
		next.Name = *name
	}
	m, err := harmony.NewMatcherWith(*preset, *threshold)
	exitOn(err)
	m.Sparse(*sparseBudget)

	rep, d, err := harmony.UpgradeSchema(reg, next, *steward, harmony.DiffOptions{Engine: m.Engine})
	exitOn(err)
	if !*noRematch {
		_, err = harmony.RematchArtifacts(reg, m.Engine, d, rep, *threshold)
		exitOn(err)
	}
	fmt.Println(rep.Summary())
	for _, ar := range rep.Artifacts {
		fmt.Printf("  %s\n", ar)
	}
	if len(rep.DirtyPaths) > 0 {
		fmt.Printf("  dirty: %d elements re-matched\n", len(rep.DirtyPaths))
	}
	if *dryRun {
		fmt.Println("dry run: registry not saved")
		return
	}
	exitOn(st.Snapshot())
	exitOn(st.Close())
	fmt.Printf("committed to %s (schema %s now v%d)\n", *storeDir, rep.Schema, rep.ToVersion)
}

// storeDirEmpty reports whether a store directory holds no durable state
// yet — the state in which opening it would initialize it: no snapshot
// and no WAL segment; bookkeeping files like the single-writer LOCK
// don't count. Any read failure other than absence aborts.
func storeDirEmpty(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return true
		}
		exitOn(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "wal-") {
			return false
		}
	}
	return true
}
