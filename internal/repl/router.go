package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"harmony/internal/corpus"
	"harmony/internal/obs"
)

// RouterStats counts scatter-gather activity, served under /v1/stats.
type RouterStats struct {
	// Queries counts fanned-out corpus queries; Fanouts counts the
	// per-shard requests they issued.
	Queries uint64 `json:"queries"`
	Fanouts uint64 `json:"fanouts"`
	// Failovers counts shards answered by their fallback replica after
	// the primary failed; Errors counts queries that failed outright
	// (both replicas down for some shard).
	Failovers uint64 `json:"failovers"`
	Errors    uint64 `json:"errors"`
}

// Router fans corpus top-k queries out across a replica set. Every
// replica holds the full corpus (replication copies data, not
// partitions of it), so sharding divides the scoring work: shard i of n
// goes to replica i, and when that replica fails the shard is retried
// on its neighbor — any replica can answer any shard. Partials merge
// exactly (corpus.MergeTopK) because each shard is scored with the
// global k.
type Router struct {
	replicas []string
	client   *http.Client

	mu    sync.Mutex
	stats RouterStats
}

// NewRouter builds a router over replica base URLs (typically the
// leader plus its followers). client may be nil.
func NewRouter(replicas []string, client *http.Client) (*Router, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("repl: router needs at least one replica URL")
	}
	for _, r := range replicas {
		if _, err := url.Parse(r); err != nil {
			return nil, fmt.Errorf("repl: replica URL %q: %w", r, err)
		}
	}
	if client == nil {
		client = &http.Client{}
	}
	return &Router{replicas: replicas, client: client}, nil
}

// Replicas returns the configured replica URLs.
func (rt *Router) Replicas() []string { return rt.replicas }

// TopK scatters one corpus query across the replicas — shard i to
// replica i with the shared params plus shard/shards/local markers —
// and gathers the partials into one exact top-k. params carries the
// query itself (schema, preset, threshold, candidates, ...); k is the
// global top-k every shard also scores with.
func (rt *Router) TopK(ctx context.Context, k int, params url.Values) (*corpus.Result, error) {
	n := len(rt.replicas)
	rt.mu.Lock()
	rt.stats.Queries++
	rt.mu.Unlock()

	partials := make([]*corpus.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for shard := 0; shard < n; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			ctx := ctx
			if parent, ok := obs.SpanFromContext(ctx); ok {
				leg := parent.StartChild("fanout")
				leg.SetAttr("shard", shard)
				leg.SetAttr("replica", rt.replicas[shard%n])
				defer leg.End()
				ctx = obs.ContextWithSpan(ctx, leg)
			}
			q := url.Values{}
			for key, vs := range params {
				q[key] = vs
			}
			q.Set("k", strconv.Itoa(k))
			q.Set("shard", strconv.Itoa(shard))
			q.Set("shards", strconv.Itoa(n))
			// local=1 stops the replica's own router (if any) from
			// fanning the shard out again.
			q.Set("local", "1")
			res, err := rt.ask(ctx, rt.replicas[shard%n], q)
			if err != nil && n > 1 {
				// Failover: the corpus is fully replicated, so the next
				// replica can score this shard just as well.
				rt.mu.Lock()
				rt.stats.Failovers++
				rt.mu.Unlock()
				res, err = rt.ask(ctx, rt.replicas[(shard+1)%n], q)
			}
			partials[shard], errs[shard] = res, err
		}(shard)
	}
	wg.Wait()

	merged := &corpus.Result{}
	lists := make([][]corpus.SchemaMatch, 0, n)
	for shard, res := range partials {
		if errs[shard] != nil {
			rt.mu.Lock()
			rt.stats.Errors++
			rt.mu.Unlock()
			return nil, fmt.Errorf("repl: shard %d/%d failed: %w", shard, n, errs[shard])
		}
		lists = append(lists, res.Matches)
		merged.Query = res.Query
		merged.Stats.CorpusSize += res.Stats.CorpusSize
		merged.Stats.Candidates += res.Stats.Candidates
		merged.Stats.Pruned += res.Stats.Pruned
		merged.Stats.EngineRuns += res.Stats.EngineRuns
		merged.Stats.Reused += res.Stats.Reused
		merged.Stats.CacheHits += res.Stats.CacheHits
		merged.Stats.BlockDocsScored += res.Stats.BlockDocsScored
		merged.Stats.BlockTerminated = merged.Stats.BlockTerminated || res.Stats.BlockTerminated
		// The shards ran concurrently: wall time is the slowest shard,
		// not the sum.
		if res.Stats.BlockMillis > merged.Stats.BlockMillis {
			merged.Stats.BlockMillis = res.Stats.BlockMillis
		}
		if res.Stats.ScoreMillis > merged.Stats.ScoreMillis {
			merged.Stats.ScoreMillis = res.Stats.ScoreMillis
		}
	}
	merged.Matches = corpus.MergeTopK(k, lists...)
	return merged, nil
}

// ask runs one shard's query against one replica.
func (rt *Router) ask(ctx context.Context, replica string, q url.Values) (*corpus.Result, error) {
	rt.mu.Lock()
	rt.stats.Fanouts++
	rt.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+"/v1/corpus/topk?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if sp, ok := obs.SpanFromContext(ctx); ok {
		// Propagate the trace across the process boundary: the replica's
		// middleware adopts this ID, so one trace spans every leg.
		req.Header.Set(obs.TraceHeader, sp.TraceID())
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("replica %s answered %s: %s", replica, resp.Status, body)
	}
	var res corpus.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Stats returns a copy of the scatter-gather counters.
func (rt *Router) Stats() RouterStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}
