package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"harmony/internal/obs"
	"harmony/internal/registry"
	"harmony/internal/store"
)

// ErrLeaderUnreachable reports that catch-up gave up because the leader
// stopped answering. Promotion treats it as success: an unreachable
// leader is exactly the failover case, and the follower's applied LSN is
// as caught up as it can get.
var ErrLeaderUnreachable = errors.New("repl: leader unreachable")

// Options configures one follower.
type Options struct {
	// Peer is the leader's base URL (scheme://host:port).
	Peer string
	// ReplicaID names this follower to the leader; it keys the leader's
	// segment pin for this follower's cursor.
	ReplicaID string
	// Store is the follower's own durable store. Nil runs a memory-only
	// follower that applies ops straight to Registry.
	Store *store.Store
	// Registry receives the applied ops. Defaults to Store.Registry()
	// when a store is given; required otherwise.
	Registry *registry.Registry
	// StartLSN is the LSN the registry's initial state covers
	// (memory-only followers bootstrapped from a fetched snapshot);
	// store-backed followers resume from the store's recovered LSN.
	StartLSN uint64
	// PollWait is the long-poll budget per WAL request (default 10s).
	PollWait time.Duration
	// RetryMin/RetryMax bound the reconnect backoff (default 100ms/5s).
	RetryMin time.Duration
	RetryMax time.Duration
	// BatchLimit caps records per poll (default 512).
	BatchLimit int
	// Logf receives progress lines; nil discards them.
	Logf func(string, ...any)
	// Client overrides the HTTP client (its Timeout should exceed
	// PollWait or long-polls will be cut short).
	Client *http.Client
	// Recorder, when set, receives a trace per applied WAL batch so
	// replication work shows up under /v1/traces on the follower.
	Recorder *obs.Recorder
}

// FollowerStats is a follower's replication position, served under
// /v1/stats on follower nodes.
type FollowerStats struct {
	ReplicaID string `json:"replicaId"`
	Peer      string `json:"peer"`
	// AppliedLSN is the newest record applied locally; LeaderLSN is the
	// leader's head as of the last successful contact; Lag is their
	// difference.
	AppliedLSN uint64 `json:"appliedLSN"`
	LeaderLSN  uint64 `json:"leaderLSN"`
	Lag        uint64 `json:"lag"`
	// Connected reports the last poll succeeded.
	Connected bool `json:"connected"`
	// LastError is the most recent failure ("" after a clean poll).
	LastError string `json:"lastError,omitempty"`
	// Bootstraps counts snapshot re-bootstraps (initial + after 410).
	Bootstraps uint64 `json:"bootstraps"`
	// RecordsApplied counts records applied since start.
	RecordsApplied uint64 `json:"recordsApplied"`
	// Reconnects counts recoveries from a failed poll.
	Reconnects uint64 `json:"reconnects"`
}

// Follower tails a leader's WAL and applies it locally. Construct with
// StartFollower; one goroutine runs until Stop.
type Follower struct {
	opts   Options
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	applied   uint64
	leaderLSN uint64
	connected bool
	lastErr   string
	bootstrap bool // next iteration must re-bootstrap
	stats     FollowerStats
}

// StartFollower validates opts, starts the replication loop, and
// returns the running follower.
func StartFollower(opts Options) (*Follower, error) {
	if opts.Peer == "" {
		return nil, fmt.Errorf("repl: follower needs a peer URL")
	}
	if _, err := url.Parse(opts.Peer); err != nil {
		return nil, fmt.Errorf("repl: peer URL: %w", err)
	}
	if opts.Registry == nil {
		if opts.Store == nil {
			return nil, fmt.Errorf("repl: follower needs a store or a registry")
		}
		opts.Registry = opts.Store.Registry()
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 10 * time.Second
	}
	if opts.RetryMin <= 0 {
		opts.RetryMin = 100 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 5 * time.Second
	}
	if opts.BatchLimit <= 0 {
		opts.BatchLimit = 512
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		opts:   opts,
		client: client,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	if opts.Store != nil {
		f.applied = opts.Store.LastLSN()
	} else {
		f.applied = opts.StartLSN
	}
	go f.run()
	return f, nil
}

// Stop terminates the replication loop and waits for it to exit. The
// follower's store (if any) stays open — it belongs to the caller.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
}

// Stats returns the follower's current position.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.ReplicaID = f.opts.ReplicaID
	st.Peer = f.opts.Peer
	st.AppliedLSN = f.applied
	st.LeaderLSN = f.leaderLSN
	if f.leaderLSN > f.applied {
		st.Lag = f.leaderLSN - f.applied
	}
	st.Connected = f.connected
	st.LastError = f.lastErr
	return st
}

// CatchUp polls the leader until the follower has applied everything
// the leader has, the context expires, or the leader stops answering
// (three consecutive failures → ErrLeaderUnreachable).
func (f *Follower) CatchUp(ctx context.Context) error {
	failures := 0
	for {
		status, err := f.leaderStatus(ctx)
		if err != nil {
			if failures++; failures >= 3 {
				return fmt.Errorf("%w: %v", ErrLeaderUnreachable, err)
			}
		} else {
			failures = 0
			f.mu.Lock()
			applied := f.applied
			f.mu.Unlock()
			if applied >= status.LeaderLSN {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.opts.RetryMin):
		}
	}
}

// run is the replication loop: poll, apply, back off on failure,
// re-bootstrap on compaction gaps.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.RetryMin
	for f.ctx.Err() == nil {
		if f.needBootstrap() {
			if err := f.rebootstrap(); err != nil {
				f.fail("bootstrap: %v", err)
				backoff = f.sleep(backoff)
				continue
			}
		}
		resp, gone, err := f.poll()
		switch {
		case gone:
			// Compaction passed our cursor: reset onto a snapshot.
			f.setBootstrap()
			continue
		case err != nil:
			if f.ctx.Err() != nil {
				return
			}
			f.fail("poll: %v", err)
			backoff = f.sleep(backoff)
			continue
		}
		backoff = f.opts.RetryMin
		if err := f.apply(resp); err != nil {
			// A sequence or CRC failure means our log diverged from the
			// leader's (e.g. the peer was rebuilt); resetting onto a
			// fresh snapshot re-converges.
			f.fail("apply: %v", err)
			f.setBootstrap()
		}
	}
}

func (f *Follower) needBootstrap() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bootstrap
}

func (f *Follower) setBootstrap() {
	f.mu.Lock()
	f.bootstrap = true
	f.mu.Unlock()
}

// fail records an error and marks the follower disconnected.
func (f *Follower) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	f.opts.Logf("repl[%s]: %s", f.opts.ReplicaID, msg)
	f.mu.Lock()
	if f.connected {
		f.stats.Reconnects++
	}
	f.connected = false
	f.lastErr = msg
	f.mu.Unlock()
}

// sleep waits one backoff step (or until Stop) and returns the next.
func (f *Follower) sleep(backoff time.Duration) time.Duration {
	select {
	case <-f.ctx.Done():
	case <-time.After(backoff):
	}
	if backoff *= 2; backoff > f.opts.RetryMax {
		backoff = f.opts.RetryMax
	}
	return backoff
}

// poll runs one WAL request from the current cursor. gone reports a 410
// (compaction gap).
func (f *Follower) poll() (*WALResponse, bool, error) {
	f.mu.Lock()
	from := f.applied
	f.mu.Unlock()
	q := url.Values{
		"from":    {strconv.FormatUint(from, 10)},
		"limit":   {strconv.Itoa(f.opts.BatchLimit)},
		"wait_ms": {strconv.Itoa(int(f.opts.PollWait / time.Millisecond))},
		"replica": {f.opts.ReplicaID},
	}
	ctx, cancel := context.WithTimeout(f.ctx, f.opts.PollWait+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Peer+PathWAL+"?"+q.Encode(), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return nil, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, false, fmt.Errorf("leader answered %s: %s", resp.Status, body)
	}
	var wr WALResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return nil, false, err
	}
	return &wr, false, nil
}

// apply verifies and applies one shipped batch.
func (f *Follower) apply(resp *WALResponse) error {
	f.mu.Lock()
	applied := f.applied
	f.mu.Unlock()
	var sp *obs.Span
	if f.opts.Recorder != nil && len(resp.Records) > 0 {
		var tr *obs.Trace
		tr, sp = obs.StartTrace("", "repl.apply")
		sp.SetAttr("peer", f.opts.Peer)
		sp.SetAttr("records", len(resp.Records))
		sp.SetAttr("fromLSN", applied+1)
		sp.SetAttr("toLSN", resp.Records[len(resp.Records)-1].LSN)
		defer func() {
			sp.End()
			f.opts.Recorder.Record(tr)
		}()
	}
	for _, rec := range resp.Records {
		if err := verifyRecord(rec, applied); err != nil {
			return err
		}
		var ops []registry.Op
		if err := json.Unmarshal(rec.Payload, &ops); err != nil {
			return fmt.Errorf("repl: record %d payload: %w", rec.LSN, err)
		}
		if err := f.applyRecord(rec, ops); err != nil {
			return err
		}
		applied = rec.LSN
		f.mu.Lock()
		f.applied = applied
		f.stats.RecordsApplied++
		f.mu.Unlock()
	}
	f.mu.Lock()
	f.leaderLSN = resp.LeaderLSN
	f.connected = true
	f.lastErr = ""
	f.mu.Unlock()
	return nil
}

// applyRecord lands one record locally. Store-backed followers append
// the raw payload to their own WAL at the leader's LSN and then apply
// the ops, bracketed so a concurrent local snapshot cannot capture
// registry state whose record is not yet logged; a crash between append
// and apply replays the record from the local WAL on restart.
func (f *Follower) applyRecord(rec store.Record, ops []registry.Op) error {
	if st := f.opts.Store; st != nil {
		st.LockBatch()
		defer st.UnlockBatch()
		if err := st.AppendReplicated(rec.LSN, rec.Payload, len(ops)); err != nil {
			return err
		}
	}
	if err := f.opts.Registry.Apply(ops); err != nil {
		return err
	}
	f.opts.Registry.FlushIndex()
	return nil
}

// rebootstrap fetches a snapshot from the leader and resets local state
// onto it.
func (f *Follower) rebootstrap() error {
	lsn, data, err := FetchSnapshot(f.ctx, f.client, f.opts.Peer, f.opts.ReplicaID)
	if err != nil {
		return err
	}
	if f.opts.Store != nil {
		if err := f.opts.Store.ResetToSnapshot(lsn, data); err != nil {
			return err
		}
	} else if err := f.opts.Registry.ResetTo(data); err != nil {
		return err
	}
	f.mu.Lock()
	f.applied = lsn
	f.bootstrap = false
	f.stats.Bootstraps++
	f.mu.Unlock()
	f.opts.Logf("repl[%s]: bootstrapped from snapshot at lsn %d (%d bytes)", f.opts.ReplicaID, lsn, len(data))
	return nil
}

// leaderStatus probes the leader's log position.
func (f *Follower) leaderStatus(ctx context.Context) (*StatusResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Peer+PathStatus, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("repl: status: leader answered %s", resp.Status)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// FetchSnapshot retrieves a bootstrap snapshot from a leader, returning
// the LSN it covers and its body. replica (optional) pins the cursor on
// the leader so the follow-up WAL poll cannot race compaction.
func FetchSnapshot(ctx context.Context, client *http.Client, peer, replica string) (uint64, []byte, error) {
	if client == nil {
		client = &http.Client{}
	}
	u := peer + PathSnapshot
	if replica != "" {
		u += "?replica=" + url.QueryEscape(replica)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, nil, fmt.Errorf("repl: snapshot: leader answered %s: %s", resp.Status, body)
	}
	lsn, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotLSN), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("repl: snapshot: bad %s header: %w", HeaderSnapshotLSN, err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return lsn, data, nil
}
