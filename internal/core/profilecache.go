package core

import (
	"container/list"
	"sync"
	"time"

	"harmony/internal/schema"
)

// DefaultProfileCacheSize is the default capacity of a ProfileCache in
// compiled profiles (not bytes): sized for a working set of a few
// hundred corpus schemas while keeping worst-case memory modest.
const DefaultProfileCacheSize = 128

// ProfileCache is an LRU cache of compiled schema profiles, one entry
// per schema object. Every engine owns one (NewEngine), and
// WithProfileCache swaps in a shared one: the daemon gives every engine
// preset serving one registry the same cache. Entries are immutable
// CompiledProfiles, so a cached profile can be handed to any number of
// concurrent matches. It holds per-schema state only: each match pairs
// its two profiles afresh (PairProfiles), which is cheap next to
// voting, so no pair-level state outlives a match.
//
// A cached profile serves only the schema object it was compiled from,
// and only while that schema still has the fingerprint it was compiled
// at: element fields are exported and can be changed in place, and a
// hit on the object alone could then serve a stale profile. Match
// results hand out the profile's schema and elements (Src.Schema,
// Src.View(i).El), and two schemas with the same fingerprint can differ
// in name and in element ID order, so each keeps its own entry; Get
// looks entries up by fingerprint.
//
// The cache sits next to the service layer's match-result cache in the
// invalidation path: when schema evolution retires a fingerprint, both
// caches drop it in the same sweep, so a PUT /v1/schemas rematch always
// recompiles against current content.
//
// An optional persist hook receives every profile compiled through the
// cache (not warm-loaded via Put). The daemon installs none: it warms
// the cache after a restart by compiling its newest schemata.
type ProfileCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[*schema.Schema]*list.Element

	hits, misses, evictions, invalidations uint64

	persist func(fp string, p *CompiledProfile)
}

type profileCacheEntry struct {
	fp string
	p  *CompiledProfile
}

// NewProfileCache returns a cache holding up to capacity compiled
// profiles (DefaultProfileCacheSize when capacity <= 0).
func NewProfileCache(capacity int) *ProfileCache {
	if capacity <= 0 {
		capacity = DefaultProfileCacheSize
	}
	return &ProfileCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[*schema.Schema]*list.Element),
	}
}

// SetPersist installs the artifact hook called (outside the cache lock)
// with every profile compiled on a cache miss. The hook receives the
// profile itself, not an encoded blob, so a hook that writes
// asynchronously can defer encoding off the compile path. The daemon no
// longer installs one; the hook is kept for the benchmark's traced
// replay.
func (c *ProfileCache) SetPersist(fn func(fp string, p *CompiledProfile)) {
	c.mu.Lock()
	c.persist = fn
	c.mu.Unlock()
}

// Profile returns the compiled profile of s, compiling on a miss. A hit
// needs the entry of s itself, compiled at s's current fingerprint. The
// compile runs outside the lock: two concurrent misses on the same
// schema may both compile, and the loser's (identical) result is
// discarded, so this is only duplicated work, never inconsistency.
func (c *ProfileCache) Profile(s *schema.Schema) *CompiledProfile {
	fp := s.Fingerprint()
	c.mu.Lock()
	el, ok := c.items[s]
	ok = ok && el.Value.(*profileCacheEntry).fp == fp
	p := c.touch(el, ok)
	c.mu.Unlock()
	if ok {
		return p
	}
	t0 := time.Now()
	p = compileFrom(s, fp, lexSchema(s))
	phaseCompile.Observe(time.Since(t0).Seconds())
	c.add(fp, p, true)
	return p
}

// Get returns a cached profile of the given content without compiling:
// the most recently used entry with that fingerprint, whichever schema
// object it was compiled from.
func (c *ProfileCache) Get(fp string) (*CompiledProfile, bool) {
	c.mu.Lock()
	el := c.ll.Front()
	for el != nil && el.Value.(*profileCacheEntry).fp != fp {
		el = el.Next()
	}
	p := c.touch(el, el != nil)
	c.mu.Unlock()
	return p, el != nil
}

// Put warm-loads a profile compiled outside the cache, without counting
// a miss or firing the persist hook.
func (c *ProfileCache) Put(fp string, p *CompiledProfile) {
	c.add(fp, p, false)
}

// touch counts a hit on el (ok) or a miss, moves a hit to the front and
// returns its profile. c.mu is held.
func (c *ProfileCache) touch(el *list.Element, ok bool) *CompiledProfile {
	if !ok {
		c.misses++
		profileCacheMiss.Inc()
		return nil
	}
	c.hits++
	profileCacheHit.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*profileCacheEntry).p
}

// add inserts p as the entry of its schema object. An entry compiled at
// the same fingerprint is kept (p lost a compile race); one compiled at
// another fingerprint (the schema changed in place) is replaced.
func (c *ProfileCache) add(fp string, p *CompiledProfile, persist bool) {
	c.mu.Lock()
	if el, ok := c.items[p.Schema]; ok {
		c.ll.MoveToFront(el)
		if e := el.Value.(*profileCacheEntry); e.fp != fp {
			e.fp, e.p = fp, p
		}
		c.mu.Unlock()
		return
	}
	c.items[p.Schema] = c.ll.PushFront(&profileCacheEntry{fp: fp, p: p})
	for c.ll.Len() > c.capacity {
		c.remove(c.ll.Back())
		c.evictions++
		profileCacheEvict.Inc()
	}
	hook := c.persist
	c.mu.Unlock()
	if persist && hook != nil {
		hook(fp, p)
	}
}

// remove drops entry el. c.mu is held.
func (c *ProfileCache) remove(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*profileCacheEntry).p.Schema)
}

// InvalidateFingerprint drops every profile compiled from the given
// schema content, reporting whether any existed. Called from the
// schema-evolution path alongside the match-cache sweep.
func (c *ProfileCache) InvalidateFingerprint(fp string) bool {
	c.mu.Lock()
	dropped := false
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*profileCacheEntry).fp == fp {
			c.remove(el)
			c.invalidations++
			profileCacheInvalidate.Inc()
			dropped = true
		}
		el = next
	}
	c.mu.Unlock()
	return dropped
}

// Len returns the number of cached profiles.
func (c *ProfileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// ProfileCacheStats is a point-in-time snapshot of cache effectiveness,
// exposed on the service stats endpoint.
type ProfileCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
}

// Stats returns a snapshot of the cache counters.
func (c *ProfileCache) Stats() ProfileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ProfileCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Size:          c.ll.Len(),
		Capacity:      c.capacity,
	}
}
