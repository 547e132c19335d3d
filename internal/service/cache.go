package service

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"harmony/internal/corpus"
)

// CacheKey identifies one cached match result: the corpus pipeline's
// key, so corpus queries and pairwise /v1/match requests share one
// entry space.
type CacheKey = corpus.CacheKey

// MatchPair is one path-level correspondence of a cached match outcome:
// the corpus pipeline's pair, so a cache hit hands corpus queries their
// pairs with one copy.
type MatchPair = corpus.Pair

// MatchOutcome is the cacheable product of one pairwise match: the
// one-to-one selection at the key's threshold plus summary figures.
type MatchOutcome struct {
	Pairs []MatchPair `json:"pairs"`
	// ReusedVia names the hub schema the corpus pipeline composed this
	// mapping through ("" for engine-computed outcomes). Composed scores
	// are multiplied approximations, not engine scores; the marker keeps
	// them auditable wherever the outcome is served — including
	// /v1/match hits on a key the corpus pipeline populated.
	ReusedVia string `json:"reusedVia,omitempty"`
	// SuggestedThreshold is the histogram-derived operating point proposal
	// for this score distribution (0 when unavailable, e.g. warm-started
	// outcomes).
	SuggestedThreshold float64 `json:"suggestedThreshold,omitempty"`
	// ComputeMillis is the wall time of the original scoring run; cache
	// hits return it unchanged, which is exactly the time they saved.
	ComputeMillis int64 `json:"computeMillis"`
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	// Hits counts lookups served from a resident entry.
	Hits uint64 `json:"hits"`
	// Coalesced counts lookups that piggybacked on an in-flight
	// computation of the same key (the single-flight path).
	Coalesced uint64 `json:"coalesced"`
	// Misses counts lookups that had to compute.
	Misses uint64 `json:"misses"`
	// Computes counts successful computations inserted into the cache.
	Computes uint64 `json:"computes"`
	// Evictions counts entries displaced by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Warmed counts entries inserted by warm-start rather than computed.
	Warmed uint64 `json:"warmed"`
	// Invalidated counts entries evicted by fingerprint invalidation
	// (schema version bumps).
	Invalidated uint64 `json:"invalidated"`
	// Size and Capacity describe the current occupancy.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

// Cache is a bounded LRU of match outcomes with single-flight computation:
// concurrent GetOrCompute calls for the same key perform the computation
// exactly once and share its result. Safe for concurrent use.
type Cache struct {
	// mu guards everything below; computations run outside it.
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[CacheKey]*list.Element
	inflight map[CacheKey]*flight
	stats    CacheStats
}

type cacheEntry struct {
	key CacheKey
	val *MatchOutcome
}

type flight struct {
	done chan struct{}
	val  *MatchOutcome
	err  error
	// invalidated marks an in-flight computation whose key was swept by
	// InvalidateFingerprint mid-compute: its result is served to the
	// waiters (they asked before the bump) but never inserted, so a stale
	// outcome cannot outlive the invalidation.
	invalidated bool
}

// NewCache returns an empty cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[CacheKey]*list.Element),
		inflight: make(map[CacheKey]*flight),
	}
	c.stats.Capacity = capacity
	return c
}

// GetOrCompute returns the outcome for key, computing it with compute on a
// miss. Concurrent callers for the same key block on one computation (the
// cache-stampede guard): exactly one invokes compute, the rest receive its
// result. cached reports whether the outcome was served without invoking
// compute in this call (resident entry or coalesced flight). A failed
// computation is not cached; its error propagates to every coalesced
// caller, and the next request retries.
func (c *Cache) GetOrCompute(key CacheKey, compute func() (*MatchOutcome, error)) (out *MatchOutcome, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		out = el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return out, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	c.stats.Misses++
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// The deferred cleanup runs even if compute panics, so coalesced
	// waiters are released with an error instead of blocking forever on
	// f.done while the key stays wedged in the inflight table.
	finished := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if !finished {
			f.err = fmt.Errorf("service: cache compute for %s panicked", key)
		} else if f.err == nil {
			c.stats.Computes++
			if !f.invalidated {
				c.insert(key, f.val)
			}
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	finished = true
	return f.val, false, f.err
}

// Get returns the resident outcome for key without computing. It counts as
// a hit or miss like GetOrCompute.
func (c *Cache) Get(key CacheKey) (*MatchOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*cacheEntry).val, true
}

// Put inserts an outcome directly (the warm-start path). An existing entry
// for the key is replaced.
func (c *Cache) Put(key CacheKey, val *MatchOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Warmed++
	c.insert(key, val)
}

// insert adds or replaces an entry and enforces the LRU bound. Callers
// hold the lock.
func (c *Cache) insert(key CacheKey, val *MatchOutcome) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// InvalidateFingerprint evicts every resident entry whose key references
// the fingerprint on either side, and poisons matching in-flight
// computations so their results are delivered to waiters but not cached.
// A schema version bump calls it with the superseded version's
// fingerprint: outcomes computed against the old content disappear
// immediately instead of lingering until LRU pressure pushes them out,
// while entries for the new fingerprint are never touched. It returns the
// number of resident entries evicted.
func (c *Cache) InvalidateFingerprint(fp string) int {
	if fp == "" {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for key, el := range c.items {
		if key.FingerprintA == fp || key.FingerprintB == fp {
			c.ll.Remove(el)
			delete(c.items, key)
			removed++
		}
	}
	for key, f := range c.inflight {
		if key.FingerprintA == fp || key.FingerprintB == fp {
			f.invalidated = true
		}
	}
	c.stats.Invalidated += uint64(removed)
	return removed
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Size = c.ll.Len()
	return st
}

// outcomeElapsed converts a compute duration to the outcome's millisecond
// field, rounding sub-millisecond runs up so "served from cache" never
// reads as "cost nothing to compute".
func outcomeElapsed(d time.Duration) int64 {
	ms := d.Milliseconds()
	if ms == 0 && d > 0 {
		ms = 1
	}
	return ms
}
