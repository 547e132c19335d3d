// Command harmony matches two schema files and emits the analysis products
// the paper's decision makers consume: the partition headline, the
// big-picture report, and the two-sheet outer-join spreadsheet.
//
// Usage:
//
//	harmony -a schemaA.ddl -b schemaB.xsd [flags]
//	harmony corpus -query schemaA.ddl -dir schemas/ [flags]
//	harmony diff -old v1.ddl -new v2.ddl [flags]
//	harmony evolve -store-dir store/ -schema v2.ddl [-db registry.json] [flags]
//	harmony ingest -addr http://localhost:8071 <dir|file.ndjson> [flags]
//
// Schema format is inferred from the extension: .ddl/.sql relational,
// .xsd/.xml XML Schema, .json interchange.
//
// Flags (pairwise mode):
//
//	-threshold F      confidence filter (default 0.45)
//	-preset NAME      matcher preset: harmony, coma, cupid, name-only
//	-out DIR          write concepts.csv, elements.csv, matches.csv to DIR
//	-report           print the big-picture report (default true)
//	-top N            also print the N best correspondences
//	-sparse-budget N  per-source candidate budget for sparse scoring of
//	                  large matches (default 64; 0 scores every pair)
//
// The corpus subcommand uses one schema as the query term against every
// schema file in a directory — the paper's match-against-the-repository
// idiom — and prints the top-k matching schemata with correspondence
// counts. Flags:
//
//	-query FILE    query schema file
//	-dir DIR       directory of schema files forming the corpus
//	-k N           ranked matches to return (default 5)
//	-candidates N  blocking budget (default 32)
//	-block-budget N blocking index document-scoring budget (default 0 =
//	               exact retrieval; a budget bounds blocking tail latency)
//	-preset NAME   matcher preset (default harmony)
//	-threshold F   confidence filter (default 0.4)
//	-exhaustive    score every schema (disables blocking; slow baseline)
//	-pairs N       print the N best correspondences per match (default 3)
//	-sparse-budget N  per-source element candidate budget inside each
//	               engine run (default 64; 0 scores every pair densely)
//
// The diff subcommand prints the typed structural change set between two
// versions of a schema (added / removed / renamed / moved / retyped), with
// rename detection by the match engine on the changed residue. The evolve
// subcommand applies a version bump to a schema inside a durable store
// directory (harmonyd -store-dir; the upgrade commits as one atomic WAL
// record, and an empty store imports a legacy -db JSON file one-shot):
// the version chain is extended, every stored match artifact is migrated
// through the diff — unchanged elements keep their validated decisions,
// renamed/moved elements are re-pathed with migrated-from provenance —
// and only the dirty elements are re-matched against the artifact
// counterparts. Flags: see harmony diff -h / harmony evolve -h.
//
// The ingest subcommand streams a directory of schema files (or a
// prepared .ndjson file, one interchange-format schema per line) into a
// running harmonyd through POST /v1/schemas/bulk, printing each batch
// acknowledgment — written by the server only after the batch's WAL
// commit — as it arrives. Flags: -addr, -steward, -tags, -batch, -quiet;
// see harmony ingest -h.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"harmony"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "corpus":
			runCorpus(os.Args[2:])
			return
		case "diff":
			runDiff(os.Args[2:])
			return
		case "evolve":
			runEvolve(os.Args[2:])
			return
		case "ingest":
			runIngest(os.Args[2:])
			return
		}
	}
	aPath := flag.String("a", "", "source schema file (.ddl/.sql/.xsd/.xml/.json)")
	bPath := flag.String("b", "", "target schema file")
	threshold := flag.Float64("threshold", harmony.DefaultThreshold, "confidence filter")
	preset := flag.String("preset", "harmony", "matcher preset")
	outDir := flag.String("out", "", "directory for CSV outputs")
	report := flag.Bool("report", true, "print big-picture report")
	top := flag.Int("top", 0, "print the N best correspondences")
	sparseBudget := flag.Int("sparse-budget", harmony.DefaultSparseBudget,
		"per-source candidate budget for sparse scoring of large matches (0 scores every pair)")
	flag.Parse()

	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	a, err := loadSchema(*aPath)
	exitOn(err)
	b, err := loadSchema(*bPath)
	exitOn(err)

	m, err := harmony.NewMatcherWith(*preset, *threshold)
	exitOn(err)
	m.Sparse(*sparseBudget)
	res := m.Match(a, b)
	sa, sb := harmony.SummarizeRoots(a), harmony.SummarizeRoots(b)

	fmt.Printf("%s (%d elements) vs %s (%d elements): %s\n\n",
		a.Name, a.Len(), b.Name, b.Len(), res.Partition().Stats())

	if *top > 0 {
		fmt.Printf("top correspondences:\n")
		cands := res.Correspondences()
		if len(cands) > *top {
			cands = cands[:*top]
		}
		for _, c := range cands {
			fmt.Printf("  %-40s %-40s %.3f\n",
				res.Raw().Src.View(c.Src).El.Path(),
				res.Raw().Dst.View(c.Dst).El.Path(), c.Score)
		}
		fmt.Println()
	}

	if *report {
		exitOn(res.WriteReport(os.Stdout, sa, sb, nil))
	}

	if *outDir != "" {
		exitOn(os.MkdirAll(*outDir, 0o755))
		wb := res.Workbook(sa, sb, nil)
		exitOn(writeFile(filepath.Join(*outDir, "concepts.csv"), wb.WriteConceptCSV))
		exitOn(writeFile(filepath.Join(*outDir, "elements.csv"), wb.WriteElementCSV))
		fmt.Fprintf(os.Stderr, "wrote %s/concepts.csv (%d rows) and %s/elements.csv (%d rows)\n",
			*outDir, wb.ConceptRows(), *outDir, wb.ElementRows())
	}
}

// runCorpus is the corpus subcommand: load a directory of schema files
// into a registry and answer one top-k query against it.
func runCorpus(args []string) {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	queryPath := fs.String("query", "", "query schema file")
	dir := fs.String("dir", "", "directory of schema files forming the corpus")
	k := fs.Int("k", 5, "ranked matches to return")
	candidates := fs.Int("candidates", 32, "blocking candidate budget")
	blockBudget := fs.Int("block-budget", 0,
		"blocking index document-scoring budget (0 = exact retrieval)")
	preset := fs.String("preset", "harmony", "matcher preset")
	threshold := fs.Float64("threshold", harmony.DefaultThreshold, "confidence filter")
	exhaustive := fs.Bool("exhaustive", false, "score every schema (disables blocking)")
	pairs := fs.Int("pairs", 3, "correspondences to print per match")
	sparseBudget := fs.Int("sparse-budget", harmony.DefaultSparseBudget,
		"per-source element candidate budget inside each engine run (0 scores every pair)")
	exitOn(fs.Parse(args))

	if *queryPath == "" || *dir == "" {
		fs.Usage()
		os.Exit(2)
	}
	q, err := loadSchema(*queryPath)
	exitOn(err)

	entries, err := os.ReadDir(*dir)
	exitOn(err)
	reg := harmony.NewRegistry()
	loaded := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".ddl", ".sql", ".xsd", ".xml", ".json":
		default:
			continue
		}
		s, err := loadSchema(filepath.Join(*dir, e.Name()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "harmony: skipping %s: %v\n", e.Name(), err)
			continue
		}
		if err := reg.AddSchema(s, ""); err != nil {
			fmt.Fprintf(os.Stderr, "harmony: skipping %s: %v\n", e.Name(), err)
			continue
		}
		loaded++
	}
	if loaded == 0 {
		exitOn(fmt.Errorf("no loadable schema files in %s", *dir))
	}

	m, err := harmony.NewMatcherWith(*preset, *threshold)
	exitOn(err)
	budget := *sparseBudget
	if budget <= 0 {
		budget = -1 // CorpusConfig: negative forces dense, zero means default
	}
	res, err := m.TopKAgainst(context.Background(), harmony.NewCorpusPipeline(reg, nil), q, harmony.CorpusConfig{
		Candidates:   *candidates,
		TopK:         *k,
		BlockBudget:  *blockBudget,
		Exhaustive:   *exhaustive,
		SparseBudget: budget,
	})
	exitOn(err)

	st := res.Stats
	fmt.Printf("%s (%d elements) vs %d schemata: %d candidates, %d engine runs (block %dms, score %dms)\n\n",
		q.Name, q.Len(), st.CorpusSize, st.Candidates, st.EngineRuns, st.BlockMillis, st.ScoreMillis)
	for rank, match := range res.Matches {
		tag := ""
		if match.Reused {
			tag = fmt.Sprintf("  [reused via %s]", match.Hub)
		}
		fmt.Printf("%2d. %-32s score %.3f  (%d correspondences)%s\n",
			rank+1, match.Schema, match.Score, len(match.Pairs), tag)
		for i, p := range match.Pairs {
			if i >= *pairs {
				break
			}
			fmt.Printf("      %-40s %-40s %.3f\n", p.PathA, p.PathB, p.Score)
		}
	}
}

func loadSchema(path string) (*harmony.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ddl", ".sql":
		return harmony.ParseDDL(name, string(data))
	case ".xsd", ".xml":
		return harmony.ParseXSD(name, data)
	case ".json":
		return harmony.ParseJSON(data)
	}
	return nil, fmt.Errorf("unknown schema extension %q (want .ddl/.sql/.xsd/.xml/.json)", filepath.Ext(path))
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "harmony:", err)
		os.Exit(1)
	}
}
