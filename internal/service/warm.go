package service

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
)

// Compiled-profile warming. A profile is derived data: CompileSchema
// rebuilds it from the registered schema at any time, and the cache's
// LRU capacity (default 128) bounds how many are worth having compiled.
// Profiles are not persisted, because decoding a stored profile runs
// the same derivation as a compile after a JSON unmarshal. Two paths
// fill the cache ahead of the first match instead:
//
//   - warmProfiles, at boot, compiles the capacity-many most recently
//     registered schemata — the set an LRU fed in registration order
//     would hold.
//   - profileWarmer, after a bulk stream, compiles the stream's tail in
//     the background so admission never waits on compilation.
//
// Both are best-effort: a cold cache entry costs one compile on first
// use, never correctness.

// warmProfiles fills the profile cache with the newest schemata it can
// hold: newest Registered first, ties broken by name. The compiles run
// across GOMAXPROCS workers and bypass the cache's lookup, so warming
// counts no misses; the profiles are then put oldest-first, leaving the
// newest schema at the LRU front. Returns the number of profiles warmed.
func warmProfiles(profiles *core.ProfileCache, reg *registry.Registry) int {
	entries := reg.Schemas() // sorted by name: the stable sort keeps it as the tie-break
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Registered.After(entries[j].Registered)
	})
	entries = entries[:min(len(entries), profiles.Stats().Capacity)]
	compiled := make([]*core.CompiledProfile, len(entries))
	workers := min(runtime.GOMAXPROCS(0), len(entries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(entries); i += workers {
				compiled[i] = core.CompileSchema(entries[i].Schema)
			}
		}()
	}
	wg.Wait()
	for i := len(entries) - 1; i >= 0; i-- {
		profiles.Put(entries[i].Fingerprint, compiled[i])
	}
	return len(entries)
}

// profileWarmer compiles streamed schemas' profiles in the background so
// bulk ingest admission never waits on profile compilation.
type profileWarmer struct {
	q       chan *schema.Schema
	wg      sync.WaitGroup
	warmed  atomic.Uint64
	dropped atomic.Uint64
	cache   *core.ProfileCache
}

// warmQueueDepth bounds the warm backlog. Schemas are already resident
// (the registry holds them), so entries are pointers; a full queue drops
// the warm and the schema compiles lazily on its first match instead.
const warmQueueDepth = 16384

func newProfileWarmer(cache *core.ProfileCache, workers int) *profileWarmer {
	if workers < 1 {
		workers = 1
	}
	pw := &profileWarmer{q: make(chan *schema.Schema, warmQueueDepth), cache: cache}
	pw.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer pw.wg.Done()
			for sc := range pw.q {
				pw.cache.Profile(sc)
				pw.warmed.Add(1)
			}
		}()
	}
	return pw
}

// enqueue schedules one schema's profile compile without blocking.
func (pw *profileWarmer) enqueue(sc *schema.Schema) {
	select {
	case pw.q <- sc:
	default:
		pw.dropped.Add(1)
	}
}

// close stops the workers after the backlog drains.
func (pw *profileWarmer) close() {
	close(pw.q)
	pw.wg.Wait()
}
