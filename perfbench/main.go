// Command perfbench is harmonyd's benchmark. It serves the daemon's HTTP
// API (internal/service with a store directory and fsync=commit) on a
// loopback listener, drives one seeded workload with a single
// closed-loop client, checks the answers and prints every metric.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload match|corpus-topk|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (latency, throughput,
// set-up time, live heap). With --trace 1 it runs a fixed list of the
// workload's operations over HTTP, then replays the same operations
// in-process through each layer's public functions, timing every call
// from outside, and reports the per-layer metrics. WORKLOADS.md records
// what each workload does and why.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and its accumulating report.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// shared holds state reused by every run of this build of the code
	// in one checkout (the prepared corpus store, per-seed answer digests
	// and exact counts); work is this run's scratch directory, removed at
	// exit.
	shared string
	work   string
	rep    report
}

func (b *bench) set(name string, value float64, unit string) {
	b.rep.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records one failed or wrong-answer operation.
func (b *bench) fail(format string, args ...any) {
	b.rep.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: "+format+"\n", append([]any{b.workload}, args...)...)
}

// note prints one human-readable line.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// endToEnd and perLayer list every reported metric with its unit. An
// untraced run reports exactly the end-to-end metrics; a traced run
// reports every per-layer metric, 0 where its workload does not touch
// the layer.
var endToEnd = map[string]string{
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"throughput_per_s": "1/s",
	"setup_s":          "s",
	"heap_live_mb":     "MB",
}

var perLayer = map[string]string{
	"service.overhead_ms":          "ms",
	"service.cache_hit_ratio":      "ratio",
	"service.warm_start_s":         "s",
	"core.profile_ns":              "ns",
	"core.profile_hit_ratio":       "ratio",
	"core.match_ns":                "ns",
	"core.pairs_scored":            "count",
	"core.ns_per_pair":             "ns",
	"core.sparse_share":            "ratio",
	"core.select_ns":               "ns",
	"core.suggest_ns":              "ns",
	"core.profile_warm_s":          "s",
	"core.profiles_retained_ratio": "ratio",
	"corpus.topk_ns":               "ns",
	"corpus.block_ns":              "ns",
	"corpus.score_ns":              "ns",
	"corpus.engine_runs":           "count",
	"corpus.early_exits":           "count",
	"corpus.useful_ratio":          "ratio",
	"search.query_ns":              "ns",
	"search.docs_scored":           "count",
	"search.blocks_skipped_ratio":  "ratio",
	"search.flush_ns":              "ns",
	"schema.parse_ns":              "ns",
	"registry.prepare_ns":          "ns",
	"registry.admit_ns":            "ns",
	"registry.add_match_ns":        "ns",
	"store.commit_ns":              "ns",
	"store.durable_wait_ns":        "ns",
	"store.commits_per_op":         "count",
	"store.records_per_sync":       "ratio",
	"store.bytes_per_schema":       "B",
	"store.open_s":                 "s",
	"store.snapshots":              "count",
	"setup.untraced_s":             "s",
	"setup.remainder_s":            "s",
	"trace.untraced_p50_ms":        "ms",
	"trace.layer_sum_ms":           "ms",
	"trace.layer_sum_ratio":        "ratio",
	"trace.busy_ratio":             "ratio",
}

// complete fills the traced run's untouched layers with 0 and rejects
// any metric outside the declared set.
func (b *bench) complete() error {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	for name, m := range b.rep.Metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("undeclared metric %s (%s)", name, m.Unit)
		}
	}
	for name, unit := range want {
		if _, ok := b.rep.Metrics[name]; !ok {
			if !b.traced {
				return fmt.Errorf("metric %s not measured", name)
			}
			b.set(name, 0, unit)
		}
	}
	return nil
}

var workloads = map[string]func(*bench) error{
	"match":       runMatch,
	"corpus-topk": runCorpus,
	"ingest":      runIngest,
}

// codeID names the code being measured: a digest of this executable,
// which embeds the repository's packages. State that later runs reuse is
// kept per code ID, so a store prepared or a count recorded by another
// commit's code is never read.
func codeID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func main() {
	workload := flag.String("workload", "", "workload: match, corpus-topk or ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the per-layer replay instead of the end-to-end measurement")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench-state"), "state and scratch directory")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	var id string
	root, err := filepath.Abs(*workdir)
	if err == nil {
		id, err = codeID()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		shared:   filepath.Join(root, "code-"+id),
		work:     filepath.Join(root, "run"),
		rep:      report{Metrics: map[string]metric{}},
	}
	// Runs in one checkout are sequential, so a leftover scratch
	// directory can only belong to an interrupted earlier run.
	if err := os.RemoveAll(b.work); err == nil {
		err = os.MkdirAll(b.work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b.note("workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d clients=1 loop=closed fsync=commit code=%s",
		b.workload, b.seed, *seconds, *trace, runtime.GOMAXPROCS(0), id)
	err = fn(b)
	if err == nil {
		err = b.complete()
	}
	if rerr := os.RemoveAll(b.work); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	b.rep.Correct = b.rep.Failed == 0 && b.rep.Attempted > 0
	for _, name := range sortedKeys(b.rep.Metrics) {
		m := b.rep.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(b.rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
