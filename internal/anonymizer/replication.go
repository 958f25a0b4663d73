package anonymizer

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the server half of log-shipping replication: the
// repl_subscribe handshake and its fencing rules, which keep a stale
// leader from rejoining after a promotion, the leader's registry of its
// followers' positions, and the repl_status surface operators watch.
// Followers fetch the stream itself with the backup op (since = their
// watermark; see handleBackup), and the follower loop that does so lives
// in internal/anonymizer/repl.

// Replicator is the follower-side state a server consults when it is a
// replication follower: the role gate for write requests, the leader
// address for redirects, lag for repl_status, and promotion. The repl
// package's Follower implements it; a server without one is a leader
// (or a standalone node, which is the same thing with no followers yet).
type Replicator interface {
	// IsLeader reports whether the node currently accepts writes.
	IsLeader() bool
	// LeaderAddr is where writes should be redirected while IsLeader is
	// false.
	LeaderAddr() string
	// Lag reports how many stream records the node is behind the leader's
	// last observed position, and when it last applied one.
	Lag() (frames int64, lastApply time.Time)
	// Promote stops following and turns the node into the leader of a
	// fresh epoch (one past the stale leader's), returning the new epoch.
	Promote() (uint64, error)
}

// ReplStatus is the repl_status response document.
type ReplStatus struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Epoch is the node's replication epoch.
	Epoch uint64 `json:"epoch"`
	// Watermark is the node's stream position: its log's last LSN.
	Watermark uint64 `json:"watermark"`
	// LeaderAddr is the leader a follower replicates from.
	LeaderAddr string `json:"leader_addr,omitempty"`
	// LagFrames is a follower's backlog against the leader's last
	// observed position (always present on followers, absent on leaders).
	LagFrames *int64 `json:"lag_frames,omitempty"`
	// Followers lists the peers that have subscribed to this leader,
	// with their backlog as of their last poll.
	Followers []FollowerStatus `json:"followers,omitempty"`
}

// FollowerStatus is one subscribed follower in a leader's repl_status.
type FollowerStatus struct {
	Addr string `json:"addr"`
	// Behind is the leader's record count past the position the
	// follower's last poll asked from — its durable watermark, so the
	// poll is its ack (LSNs are dense: a difference of positions).
	Behind int64 `json:"behind"`
	// LastAckMillis is the unix-millisecond timestamp of the last poll
	// (or subscription, before the first poll).
	LastAckMillis int64 `json:"last_ack_ms"`
}

// followerReg tracks one subscribed follower's acked position on the
// leader: the since of its last poll.
type followerReg struct {
	wm uint64
	at time.Time
}

// replRegistry is the leader's view of its followers.
type replRegistry struct {
	mu        sync.Mutex
	followers map[string]*followerReg
}

// note records a follower's position (subscription or poll).
func (r *replRegistry) note(addr string, wm uint64) {
	if addr == "" {
		return
	}
	r.mu.Lock()
	if r.followers == nil {
		r.followers = make(map[string]*followerReg)
	}
	r.followers[addr] = &followerReg{wm: wm, at: time.Now()}
	r.mu.Unlock()
}

// snapshot renders the registry against the leader's current position,
// sorted by address for deterministic output.
func (r *replRegistry) snapshot(current uint64) []FollowerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.followers) == 0 {
		return nil
	}
	out := make([]FollowerStatus, 0, len(r.followers))
	for addr, f := range r.followers {
		out = append(out, FollowerStatus{
			Addr:          addr,
			Behind:        int64(current - f.wm),
			LastAckMillis: f.at.UnixMilli(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// isLeader reports whether this server currently accepts writes: servers
// without a Replicator are leaders (standalone nodes are just leaders
// with no followers yet).
func (s *Server) isLeader() bool {
	return s.cfg.repl == nil || s.cfg.repl.IsLeader()
}

// notLeader builds the write-refusal response a follower returns: the
// error names the leader, and so does the machine-readable leader field.
func (s *Server) notLeader() *Response {
	addr := ""
	if s.cfg.repl != nil {
		addr = s.cfg.repl.LeaderAddr()
	}
	resp := fail(fmt.Errorf("%w (leader at %s)", ErrNotLeader, addr))
	resp.Leader = addr
	return resp
}

// writeOp reports whether op mutates registration state and must
// therefore run on the leader.
func writeOp(op Op) bool {
	switch op {
	case OpAnonymize, OpSetTrust, OpDeregister, OpTouch:
		return true
	default:
		return false
	}
}

// needsStream fails a request for the store's mutation stream (the
// replication handshake, incremental backup) in-band when the store has
// no journal to ship.
func (s *Server) needsStream() *Response {
	if err := s.store.needsJournal("replication"); err != nil {
		return fail(err)
	}
	return nil
}

// handleReplSubscribe is the replication handshake. Fencing happens
// here, in both directions:
//
//   - a subscriber reporting a LATER epoch than ours means WE are the
//     stale node (a promotion happened elsewhere) — refuse to serve
//     the stream rather than feed a fork;
//   - a subscriber whose data directory claims leadership of our epoch
//     or an earlier one is a stale leader trying to rejoin — its log may
//     hold acknowledged writes the promotion never saw, so it must
//     re-bootstrap from a backup of the current leader, not resume.
//
// It is the only fencing check: the polls after it (backup with since
// and follower set) carry no epoch. None is needed, because a live
// leader's epoch never changes (only a follower's subscribe or promotion
// writes one) and a follower re-subscribes on every reconnect.
func (s *Server) handleReplSubscribe(req *Request) *Response {
	if resp := s.needsStream(); resp != nil {
		return resp
	}
	if !s.isLeader() {
		return s.notLeader()
	}
	epoch, _ := s.store.Epoch()
	if req.Epoch > epoch {
		return fail(fmt.Errorf("%w: subscriber reports epoch %d, this node is at %d",
			ErrFenced, req.Epoch, epoch))
	}
	if req.WasLeader {
		return fail(fmt.Errorf("%w: subscriber's data directory led epoch %d (current %d); re-bootstrap it from a backup of this leader",
			ErrFenced, req.Epoch, epoch))
	}
	current := s.store.Watermark()
	if req.Watermark > current {
		return fail(fmt.Errorf("%w: subscriber is ahead (LSN %d > %d); its history diverged — re-bootstrap it",
			ErrFenced, req.Watermark, current))
	}
	s.replFollowers.note(req.Follower, req.Watermark)
	resp := newResp(true)
	resp.Epoch = epoch
	resp.Watermark = current
	return resp
}

// handleReplStatus reports the node's replication state.
func (s *Server) handleReplStatus() *Response {
	if resp := s.needsStream(); resp != nil {
		return resp
	}
	epoch, _ := s.store.Epoch()
	wm := s.store.Watermark()
	status := &ReplStatus{Epoch: epoch, Watermark: wm}
	if s.isLeader() {
		status.Role = "leader"
		status.Followers = s.replFollowers.snapshot(wm)
	} else {
		status.Role = "follower"
		status.LeaderAddr = s.cfg.repl.LeaderAddr()
		lag, _ := s.cfg.repl.Lag()
		status.LagFrames = &lag
	}
	resp := newResp(true)
	resp.Repl = status
	return resp
}

// handleReplPromote promotes a follower to leader.
func (s *Server) handleReplPromote() *Response {
	if s.cfg.repl == nil {
		return fail(fmt.Errorf("%w: this node is not a replica", ErrBadOp))
	}
	epoch, err := s.cfg.repl.Promote()
	if err != nil {
		return fail(err)
	}
	resp := newResp(true)
	resp.Epoch = epoch
	return resp
}

// handleTouch renews a registration's lease through the store's shared
// mutation pipeline.
func (s *Server) handleTouch(req *Request) *Response {
	if req.RegionID == "" {
		return fail(fmt.Errorf("%w: missing region id", ErrBadOp))
	}
	if err := checkTTL(req.TTLMillis); err != nil {
		return fail(err)
	}
	expiry, err := s.store.Touch(req.RegionID, time.Duration(req.TTLMillis)*time.Millisecond)
	if err != nil {
		return fail(err)
	}
	resp := newResp(true)
	resp.RegionID = req.RegionID
	if !expiry.IsZero() {
		resp.ExpiresAtMillis = expiry.UnixMilli()
	}
	return resp
}
