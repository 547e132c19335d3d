package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// heapSampler records the live heap every few operations of the timed
// section. Each sample forces a collection, between operations and
// outside their timing. The median of the samples is steadier than a
// single reading, which would depend on what the last few operations
// left in the daemon's caches.
type heapSampler struct {
	every int
	ops   int
	mb    []float64
}

// op counts one timed operation, sampling when due.
func (h *heapSampler) op() {
	if h.ops++; h.ops%h.every == 0 {
		h.mb = append(h.mb, liveHeapMB())
	}
}

// median returns the median sample, taking one now if there is none.
func (h *heapSampler) median() float64 {
	if len(h.mb) == 0 {
		h.mb = append(h.mb, liveHeapMB())
	}
	return median(h.mb)
}

// liveHeapMB forces a collection and returns the live heap in MiB. It
// covers the whole process: the daemon plus the client's inputs, which
// are the same on both sides of any comparison.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// copyDir copies a store directory (regular files, one level of
// subdirectories such as profiles/) to dst, which must not exist.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if d.Name() == "LOCK" {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// freshCopy replaces dst with a copy of the prepared store src.
func freshCopy(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return copyDir(src, dst)
}

// quiesce flushes dirty file data left by set-up (store copies,
// deletions) before a measurement, so timed WAL fsyncs and restarts do
// not queue behind its writeback.
func quiesce() { syscall.Sync() }

// measureSetup restarts the daemon n times over a fresh copy of the
// prepared store and returns the median time until /healthz answered ok,
// plus the last daemon, left running for the timed section. Restarting
// an unmodified store leaves it unchanged, so every restart sees the
// same state.
func measureSetup(prepared, dir string, n int) (float64, *daemon, error) {
	if err := freshCopy(prepared, dir); err != nil {
		return 0, nil, err
	}
	quiesce()
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := startDaemon(dir)
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return median(times), d, nil
		}
		if err := d.stop(); err != nil {
			return 0, nil, err
		}
	}
}

// checkRecord compares a run's seed-determined record (answer digests,
// exact counts) with what earlier runs of the same seed left in the
// checkout, adding keys it has not seen yet. It returns the keys whose
// values differ.
func checkRecord(path string, rec map[string]string) ([]string, error) {
	prev := map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	var diff []string
	added := false
	for _, k := range sortedKeys(rec) {
		old, ok := prev[k]
		switch {
		case !ok:
			prev[k] = rec[k]
			added = true
		case old != rec[k]:
			diff = append(diff, k)
		}
	}
	if !added {
		return diff, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(prev, "", " ")
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return nil, err
	}
	return diff, os.Rename(tmp, path)
}

// checkCounts is the exact-count check: work counts over a fixed list of
// operations must repeat exactly across runs of one seed. Drift from an
// earlier run in this checkout counts as a failure.
func (b *bench) checkCounts(counts map[string]float64) error {
	rec := make(map[string]string, len(counts))
	for k, v := range counts {
		rec[k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	path := filepath.Join(b.shared, "records", fmt.Sprintf("%s-counts-seed%d.json", b.workload, b.seed))
	diff, err := checkRecord(path, rec)
	if err != nil {
		return err
	}
	for _, k := range diff {
		b.fail("exact count %s = %s drifted from an earlier run of seed %d", k, rec[k], b.seed)
	}
	b.note("exact counts (seed %d, %d drifted): %v", b.seed, len(diff), rec)
	return nil
}

// reportLatency sets the latency and throughput metrics from the timed
// operations; done is what throughput counts (operations or schemata).
func (b *bench) reportLatency(lat []float64, timed time.Duration, done float64) {
	b.set("latency_p50_ms", median(lat), "ms")
	b.set("latency_p90_ms", quantile(lat, 0.9), "ms")
	b.set("throughput_per_s", done/timed.Seconds(), "1/s")
	b.note("timed ops=%d wall=%.3fs error_rate=%g ratio", len(lat), timed.Seconds(), ratio(float64(b.rep.Failed), float64(b.rep.Attempted)))
}
