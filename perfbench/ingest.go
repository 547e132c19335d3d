package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

// The ingest workload: POST /v1/schemas/bulk streams of seeded schemata,
// back to back, into one store-backed daemon until it holds 10k (one
// fill). One operation is one stream. Each fill starts from a fresh copy
// of the prepared empty store; a run fills until its measured time is
// spent, and after the last fill the daemon restarts and every sent
// schema must be present with its fingerprint.

// ingestStream is the schemata per stream: 100 streams fill the store,
// enough operations for the 90th percentile. The daemon's default batch
// is 256 lines, so each stream is one batch, one WAL record and one ack.
const ingestStream = 100

// defaultBulkBatch mirrors the daemon's bulk batch size for the replay.
const defaultBulkBatch = 256

type ingestFixture struct {
	bodies [][]byte
	// want maps each stream's schema names to their fingerprints.
	want []map[string]string
}

func newIngestFixture(seed int64) (*ingestFixture, error) {
	ss, _, _ := synth.Collection(seed, corpusDomains, corpusPerDomain)
	bodies, err := ndjsonStreams(ss, ingestStream)
	if err != nil {
		return nil, err
	}
	fx := &ingestFixture{bodies: bodies}
	for i := 0; i < len(ss); i += ingestStream {
		m := make(map[string]string, ingestStream)
		for _, sc := range ss[i:min(i+ingestStream, len(ss))] {
			m[sc.Name] = sc.Fingerprint()
		}
		fx.want = append(fx.want, m)
	}
	return fx, nil
}

// verifyCatalog checks that every schema of every stream is listed with
// its fingerprint. A stream with a missing or changed schema counts as
// one failure, unless it already failed when it was sent (ok[i] false).
func (b *bench) verifyCatalog(d *daemon, fx *ingestFixture, ok []bool) error {
	var list []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := getJSON(d.url+"/v1/schemas", &list); err != nil {
		return err
	}
	have := make(map[string]string, len(list))
	for _, e := range list {
		have[e.Name] = e.Fingerprint
	}
	for i, want := range fx.want {
		for _, name := range sortedKeys(want) {
			if have[name] == want[name] {
				continue
			}
			if ok[i] {
				b.fail("stream %d: schema %s has fingerprint %q, want %q", i, name, have[name], want[name])
			}
			break
		}
	}
	return nil
}

// fill streams the whole fixture into the daemon, returning the per
// stream latencies, which streams succeeded, and the schemata acked. A
// stream succeeds when the daemon acks every schema it sent.
func (b *bench) fill(d *daemon, fx *ingestFixture, heap *heapSampler) (lat []float64, ok []bool, schemas int, timed time.Duration) {
	ok = make([]bool, len(fx.bodies))
	for i, body := range fx.bodies {
		t0 := time.Now()
		n, err := d.bulkIngest(body)
		dt := time.Since(t0)
		lat, timed = append(lat, ms(dt)), timed+dt
		schemas += n
		if heap != nil {
			heap.op()
		}
		b.rep.Attempted++
		switch {
		case err != nil:
			b.fail("stream %d: %v", i, err)
		case n != len(fx.want[i]):
			b.fail("stream %d: %d of %d schemata acked", i, n, len(fx.want[i]))
		default:
			ok[i] = true
		}
	}
	return lat, ok, schemas, timed
}

// primeText fills the process-global string intern, token intern table
// and lexical memos with the fixture's vocabulary by parsing and
// preparing every schema into a throwaway registry. Otherwise the first
// fill of a run pays their growth and later fills do not.
func primeText(fx *ingestFixture) error {
	scratch := registry.New()
	for _, body := range fx.bodies {
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			sc, err := schema.ParseJSON(line)
			if err != nil {
				return err
			}
			if _, err := scratch.PrepareSchemaRaw(sc, line, ""); err != nil {
				return err
			}
		}
	}
	return nil
}

func runIngest(b *bench) error {
	fx, err := newIngestFixture(b.seed)
	if err != nil {
		return err
	}
	prepared := filepath.Join(b.work, "prepared")
	if err := prepareStore(prepared); err != nil {
		return err
	}
	dir := filepath.Join(b.work, "store")
	start, d, err := measureSetup(prepared, dir, 1)
	if err != nil {
		return err
	}
	if err := primeText(fx); err != nil {
		return err
	}
	b.note("primed: daemon started over the empty store; process-global intern tables and lexical memos by an in-process parse and prepare of the fixture")
	if b.traced {
		return traceIngest(b, fx, d, prepared, start)
	}

	var (
		lat       []float64
		acked     []bool
		timed     time.Duration
		schemas   int
		snapshots uint64
		heap      = heapSampler{every: 25}
	)
	for fill := 0; fill == 0 || timed < b.seconds; fill++ {
		if fill > 0 {
			// Earlier fills are checked against the live catalog; the
			// last one is checked after a restart below. Filled stores
			// are kept until the run ends: deleting one would queue
			// its discards ahead of the next fill's fsyncs.
			if err := b.verifyCatalog(d, fx, acked); err != nil {
				return err
			}
			if err := d.stop(); err != nil {
				return err
			}
			dir = filepath.Join(b.work, fmt.Sprintf("store-%d", fill))
			if err := copyDir(prepared, dir); err != nil {
				return err
			}
			if d, err = startDaemon(dir); err != nil {
				return err
			}
		}
		quiesce()
		st0, err := d.stats()
		if err != nil {
			return err
		}
		l, a, n, t := b.fill(d, fx, &heap)
		lat, acked, schemas, timed = append(lat, l...), a, schemas+n, timed+t
		st1, err := d.stats()
		if err != nil {
			return err
		}
		snapshots += st1.Store.Snapshots - st0.Store.Snapshots
	}
	b.set("heap_live_mb", heap.median(), "MB")
	if err := d.stop(); err != nil {
		return err
	}
	b.reportLatency(lat, timed, float64(schemas))
	b.note("store.snapshots during the timed section: %d; schemas acked %d", snapshots, schemas)
	// The set-up time of ingest is the restart over the store the last
	// fill built, the restart a bulk load leads to; starting over the
	// empty store takes about a millisecond, too little to compare.
	setup, err := b.restartAndVerify(dir, fx, acked)
	b.set("setup_s", setup, "s")
	return err
}

// restartAndVerify restarts the daemon over the filled store, checks the
// schemata of every stream survived, and returns the time until /healthz
// was ok.
func (b *bench) restartAndVerify(dir string, fx *ingestFixture, acked []bool) (float64, error) {
	quiesce()
	t0 := time.Now()
	d, err := startDaemon(dir)
	if err != nil {
		return 0, err
	}
	restart := time.Since(t0).Seconds()
	if err := b.verifyCatalog(d, fx, acked); err != nil {
		d.stop()
		return 0, err
	}
	return restart, d.stop()
}

// warmer replays the daemon's post-stream profile warmer: background
// workers compile admitted schemata through the profile cache, whose
// persist hook writes the profile artifacts.
type warmer struct {
	q       chan *schema.Schema
	wg      sync.WaitGroup
	compile samples
}

func newWarmer(pc *core.ProfileCache, workers int) *warmer {
	w := &warmer{q: make(chan *schema.Schema, 16384)} // the daemon's warm backlog bound
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer w.wg.Done()
			for sc := range w.q {
				w.compile.time(func() { pc.Profile(sc) })
			}
		}()
	}
	return w
}

// enqueue hands a schema to the warmer, dropping it when the backlog is
// full, as the daemon does.
func (w *warmer) enqueue(sc *schema.Schema) {
	select {
	case w.q <- sc:
	default:
	}
}

func (w *warmer) close() {
	close(w.q)
	w.wg.Wait()
}

// ingestLayers collects the replay's per-call timings.
type ingestLayers struct {
	parse, prepare, admit, flush samples
}

// replayStream replays one bulk stream the way the daemon's pipeline runs
// it: batches of lines are parsed and prepared on a worker pool, admitted
// in order (one registry lock, one WAL record each), the index flushed
// once, and the admitted schemata handed to the warmer.
func replayStream(reg *registry.Registry, body []byte, l *ingestLayers, w *warmer) (int, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	type batch struct {
		lines    [][]byte
		prepared []*registry.PreparedSchema
		err      error
		done     chan struct{}
	}
	var batches []*batch
	for i := 0; i < len(lines); i += defaultBulkBatch {
		batches = append(batches, &batch{lines: lines[i:min(i+defaultBulkBatch, len(lines))], done: make(chan struct{})})
	}
	work := make(chan *batch)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for bt := range work {
				for _, line := range bt.lines {
					var sc *schema.Schema
					var ps *registry.PreparedSchema
					l.parse.time(func() { sc, bt.err = schema.ParseJSON(line) })
					if bt.err == nil {
						l.prepare.time(func() { ps, bt.err = reg.PrepareSchemaRaw(sc, line, "") })
					}
					if bt.err != nil {
						break
					}
					bt.prepared = append(bt.prepared, ps)
				}
				close(bt.done)
			}
		}()
	}
	go func() {
		defer close(work)
		for _, bt := range batches {
			work <- bt
		}
	}()
	added := 0
	var firstErr error
	for _, bt := range batches {
		<-bt.done
		if bt.err != nil {
			firstErr = bt.err
			continue
		}
		var errs []error
		var n int
		l.admit.time(func() { n, errs = reg.AddPrepared(bt.prepared) })
		added += n
		for i, err := range errs {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("admit %s: %w", bt.prepared[i].Schema.Name, err)
			}
		}
		for _, ps := range bt.prepared {
			w.enqueue(ps.Schema)
		}
	}
	wg.Wait()
	l.flush.time(reg.FlushIndex)
	return added, firstErr
}

// traceIngest runs one fill over HTTP, restarts and verifies it, then
// replays the fill through schema, registry, search, store and core on
// a fresh copy of the prepared store.
func traceIngest(b *bench, fx *ingestFixture, d *daemon, prepared string, setup float64) error {
	st0, err := d.stats()
	if err != nil {
		return err
	}
	untraced, acked, _, _ := b.fill(d, fx, nil)
	st1, err := d.stats()
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if _, err := b.restartAndVerify(filepath.Join(b.work, "store"), fx, acked); err != nil {
		return err
	}

	r, err := openReplay(b, prepared, setup)
	if err != nil {
		return err
	}
	defer r.close()
	reg := r.st.Registry()
	r.pc.SetPersist(func(fp string, p *core.CompiledProfile) { _ = r.st.SaveProfile(fp, p.Encode()) })
	w := newWarmer(r.pc, runtime.GOMAXPROCS(0))
	var l ingestLayers
	wall := make([]float64, len(fx.bodies))
	s0 := r.st.Stats()
	schemas := 0
	start := time.Now()
	for i, body := range fx.bodies {
		t0 := time.Now()
		n, err := replayStream(reg, body, &l, w)
		wall[i] = ms(time.Since(t0))
		schemas += n
		if err != nil {
			b.fail("replay stream %d: %v", i, err)
		}
	}
	w.close()
	elapsed := time.Since(start)
	s1 := r.st.Stats()
	b.checkJournal(st0, st1, s0, s1)
	if reg.Len() != schemas {
		b.fail("replay registry holds %d schemata, %d admitted", reg.Len(), schemas)
	}
	n := float64(len(fx.bodies))
	busy := l.parse.total() + l.prepare.total() + l.admit.total() + l.flush.total() + w.compile.total()
	b.reportOverhead(untraced, wall)
	b.set("trace.busy_ratio", ratio(busy, ns(elapsed)), "ratio")
	b.set("store.snapshots", float64(st1.Store.Snapshots-st0.Store.Snapshots), "count")
	b.set("core.profile_ns", w.compile.median(), "ns")
	b.set("schema.parse_ns", l.parse.median(), "ns")
	b.set("registry.prepare_ns", l.prepare.median(), "ns")
	b.set("registry.admit_ns", l.admit.median(), "ns")
	b.set("search.flush_ns", l.flush.median(), "ns")
	r.reportStore(s0, s1, n, float64(schemas))
	return b.checkCounts(map[string]float64{
		"store.commits_per_op": float64(s1.Commits - s0.Commits),
	})
}
