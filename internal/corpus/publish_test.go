package corpus

import (
	"context"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/synth"
)

// gatedJournal is an AsyncJournal whose durability waits all release
// once n records have been enqueued. A caller that waits for each record
// before issuing the next never gets there.
type gatedJournal struct {
	mu      sync.Mutex
	n, seen int
	release chan struct{}
}

func newGatedJournal(n int) *gatedJournal {
	return &gatedJournal{n: n, release: make(chan struct{})}
}

func (j *gatedJournal) Commit(ops []registry.Op) error { return j.CommitAsync(ops)() }

func (j *gatedJournal) CommitAsync([]registry.Op) func() error {
	j.mu.Lock()
	j.seen++
	if j.seen == j.n {
		close(j.release)
	}
	j.mu.Unlock()
	return func() error { <-j.release; return nil }
}

// open releases every wait, however many records arrived.
func (j *gatedJournal) open() {
	j.mu.Lock()
	if j.seen < j.n {
		j.seen = j.n
		close(j.release)
	}
	j.mu.Unlock()
}

// artifactCache is a Cache that never hits and stores every outcome as a
// registry artifact, as the service's adapter does.
type artifactCache struct{ reg *registry.Registry }

func (artifactCache) Lookup(CacheKey) ([]Pair, string, bool) { return nil, "", false }

func (c artifactCache) Store(_ CacheKey, queryName string, m *SchemaMatch) {
	ma := registry.MatchArtifact{SchemaA: queryName, SchemaB: m.Schema}
	for _, p := range m.Pairs {
		ma.Pairs = append(ma.Pairs, registry.AssertedMatch{
			PathA: p.PathA, PathB: p.PathB, Score: min(p.Score, 0.9999), Status: registry.StatusProposed,
		})
	}
	_, _ = c.reg.AddMatch(ma)
}

// TestTopKPublishesOutcomesTogether checks that a query's artifact
// writes are all in flight at once: the journal acknowledges none of
// them until every one is enqueued, which deadlocks a pipeline whose
// scoring workers each wait for their own write.
func TestTopKPublishesOutcomesTogether(t *testing.T) {
	schemas, _, _ := synth.Collection(5, 3, 3)
	reg := buildRegistry(t, schemas)
	n := len(schemas) - 1 // exhaustive mode scores every other schema
	j := newGatedJournal(n)
	reg.SetJournal(j)
	p := NewPipeline(reg, artifactCache{reg})

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := p.TopK(context.Background(), core.PresetNameOnly(), schemas[0], Config{
			TopK: 3, Exhaustive: true, Preset: "test", Workers: 2,
		})
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		j.open()
		t.Fatalf("TopK still waiting after 30s: artifact writes were not issued together")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Stats.EngineRuns != n {
		t.Errorf("engine runs = %d, want %d", out.res.Stats.EngineRuns, n)
	}
	if got := reg.MatchCount(); got != n {
		t.Errorf("stored %d artifacts, want %d", got, n)
	}
}

// TestTopKPublishesAfterCancellation checks that outcomes scored before
// a cancellation are still stored, and TopK reports the cancellation.
func TestTopKPublishesAfterCancellation(t *testing.T) {
	schemas, _, _ := synth.Collection(5, 3, 3)
	reg := buildRegistry(t, schemas)
	ctx, cancel := context.WithCancel(context.Background())
	cache := &cancellingCache{memCache: newMemCache(), cancel: cancel}
	p := NewPipeline(reg, cache)
	// The first Lookup cancels the query, so the one worker scores that
	// candidate and then stops.
	_, err := p.TopK(ctx, core.PresetNameOnly(), schemas[0], Config{
		TopK: 3, Exhaustive: true, Preset: "test", Workers: 1,
	})
	if err == nil {
		t.Fatal("cancelled query did not error")
	}
	if cache.stores != 1 {
		t.Errorf("stored %d outcomes, want the 1 scored before cancellation", cache.stores)
	}
}

// cancellingCache cancels its query on the first Lookup.
type cancellingCache struct {
	*memCache
	cancel context.CancelFunc
}

func (c *cancellingCache) Lookup(key CacheKey) ([]Pair, string, bool) {
	c.cancel()
	return c.memCache.Lookup(key)
}
