package service

import (
	"runtime"
	"sort"
	"sync"

	"harmony/internal/core"
	"harmony/internal/registry"
)

// Compiled-profile warming. A profile is derived data: CompileSchema
// rebuilds it from the registered schema at any time, and the cache's
// LRU capacity (default 128) bounds how many are worth having compiled.
// Profiles are not persisted, because decoding a stored profile runs
// the same derivation as a compile after a JSON unmarshal. Instead, at
// boot, warmProfiles compiles the capacity-many most recently registered
// schemata — the set an LRU fed in registration order would hold. It is
// best-effort: every other schema, bulk-ingested ones included, compiles
// once on its first match, and a cold entry never costs correctness.

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
