package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"harmony/internal/repl"
)

// This file wires internal/repl into the server: the follower (its
// bootstrap and tailing), the leader's serving source, the
// scatter-gather router, the read-only guard on mutating endpoints, and
// promotion.

// initRepl starts the node's replication components per cfg.Role. A
// follower with nothing applied yet is populated from the leader's
// snapshot before repl.StartFollower returns (best effort), so New calls
// this before it warms the match and profile caches.
func (s *Server) initRepl() error {
	// Any store-backed node serves the replication API: leaders feed
	// followers, and a follower serving its own (identical) log allows
	// chained replication and keeps promotion from needing a remount.
	if s.st != nil {
		s.source = repl.NewSource(s.st, s.logf)
	}
	if len(s.cfg.Replicas) > 0 {
		rt, err := repl.NewRouter(s.cfg.Replicas, nil)
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		s.router = rt
	}
	if s.cfg.Role != RoleFollower {
		return nil
	}
	s.readOnly.Store(true)
	f, err := repl.StartFollower(repl.Options{
		Peer:      s.cfg.PeerURL,
		ReplicaID: s.cfg.ReplicaID,
		Store:     s.st,
		Registry:  s.reg,
		Logf:      s.logf,
		Recorder:  s.recorder,
	})
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.follower = f
	s.logf("service: following %s as %q (lsn %d)", s.cfg.PeerURL, s.cfg.ReplicaID, f.Stats().AppliedLSN)
	return nil
}

// Role returns the node's current replication role — Config.Role until
// a promotion flips a follower to leader.
func (s *Server) Role() string {
	if s.readOnly.Load() {
		return RoleFollower
	}
	if s.cfg.Role == "" {
		return ""
	}
	return RoleLeader
}

// ReadOnly reports whether the node currently rejects mutations.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// writable guards a mutating endpoint: followers answer 403 with the
// leader's URL (Location header + JSON body) instead of executing.
func (s *Server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.readOnly.Load() {
			s.redirects.Add(1)
			if s.cfg.PeerURL != "" {
				w.Header().Set("Location", s.cfg.PeerURL+r.URL.Path)
			}
			writeJSON(w, http.StatusForbidden, map[string]string{
				"error":  "read-only follower: mutations go to the leader",
				"leader": s.cfg.PeerURL,
			})
			return
		}
		h(w, r)
	}
}

// replicationError returns the follower-health failure /healthz should
// surface (nil when replication is healthy or the node is not a
// follower).
func (s *Server) replicationError() error {
	s.replMu.Lock()
	f := s.follower
	s.replMu.Unlock()
	if f == nil {
		return nil
	}
	st := f.Stats()
	if !st.Connected && st.LastError != "" {
		return fmt.Errorf("replication: disconnected from %s: %s", st.Peer, st.LastError)
	}
	if st.Lag > s.cfg.LagThreshold {
		return fmt.Errorf("replication: lag %d records exceeds threshold %d", st.Lag, s.cfg.LagThreshold)
	}
	return nil
}

// replStats builds the /v1/stats replication block (nil when the node
// runs no replication component).
func (s *Server) replStats() *ReplStats {
	s.replMu.Lock()
	f := s.follower
	s.replMu.Unlock()
	if f == nil && s.source == nil && s.router == nil && s.cfg.Role == "" {
		return nil
	}
	rs := &ReplStats{Role: s.Role(), RedirectsTotal: s.redirects.Load()}
	if f != nil {
		fs := f.Stats()
		rs.Follower = &fs
	}
	if s.source != nil {
		ss := s.source.Stats()
		rs.Source = &ss
	}
	if s.router != nil {
		ts := s.router.Stats()
		rs.Router = &ts
	}
	return rs
}

// Promote turns a caught-up follower into a writable leader: drain the
// replication stream (CatchUp), stop tailing, and lift the read-only
// guard. An unreachable leader does not block promotion — that is the
// failover case, and the follower is then as caught up as it can get.
// With a store, the node was already serving the replication API, so
// surviving followers can re-point their -peer at it and keep tailing
// the byte-identical log.
func (s *Server) Promote(ctx context.Context) error {
	s.replMu.Lock()
	f := s.follower
	s.replMu.Unlock()
	if f == nil {
		return fmt.Errorf("service: not a follower (role %q)", s.Role())
	}
	if err := f.CatchUp(ctx); err != nil && !errors.Is(err, repl.ErrLeaderUnreachable) {
		return fmt.Errorf("service: promote catch-up: %w", err)
	} else if err != nil {
		s.logf("service: promoting without full catch-up: %v", err)
	}
	s.replMu.Lock()
	if s.follower != f {
		// A concurrent Promote won the race and already tore it down.
		s.replMu.Unlock()
		return nil
	}
	s.follower = nil
	s.replMu.Unlock()
	f.Stop()
	s.readOnly.Store(false)
	st := f.Stats()
	s.logf("service: promoted to leader at lsn %d (was following %s)", st.AppliedLSN, st.Peer)
	return nil
}

// handlePromote is POST /repl/v1/promote — the HTTP face of Promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if err := s.Promote(r.Context()); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"role": RoleLeader,
		"appliedLSN": func() uint64 {
			if s.st != nil {
				return s.st.LastLSN()
			}
			return 0
		}(),
	})
}
