package anonymizer

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the server half of log-shipping replication: the wire
// handlers that make a leader's mutation stream consumable over the
// protocol (repl_subscribe / repl_frames / repl_ack), the fencing rules
// that keep a stale leader from rejoining after a promotion, and the
// repl_status surface operators watch. The follower loop that consumes
// these ops lives in internal/anonymizer/repl.

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
	// Watermark is the node's per-shard stream position.
	Watermark []uint64 `json:"watermark"`
	// LeaderAddr is the leader a follower replicates from.
	LeaderAddr string `json:"leader_addr,omitempty"`
	// LagFrames is a follower's backlog against the leader's last
	// observed position (always present on followers, absent on leaders).
	LagFrames *int64 `json:"lag_frames,omitempty"`
	// Followers lists the peers that have subscribed to this leader,
	// with their acked backlog.
	Followers []FollowerStatus `json:"followers,omitempty"`
}

// FollowerStatus is one subscribed follower in a leader's repl_status.
type FollowerStatus struct {
	Addr string `json:"addr"`
	// Behind is the leader's record count past the follower's last ack.
	Behind int64 `json:"behind"`
	// LastAckMillis is the unix-millisecond timestamp of the last ack
	// (or subscription, before the first ack).
	LastAckMillis int64 `json:"last_ack_ms"`
}

// followerReg tracks one subscribed follower's acked position on the
// leader.
type followerReg struct {
	wm Watermark
	at time.Time
}

// replRegistry is the leader's view of its followers.
type replRegistry struct {
	mu        sync.Mutex
	followers map[string]*followerReg
}

// note records a follower's position (subscription or ack).
func (r *replRegistry) note(addr string, wm Watermark) {
	if addr == "" {
		return
	}
	r.mu.Lock()
	if r.followers == nil {
		r.followers = make(map[string]*followerReg)
	}
	r.followers[addr] = &followerReg{wm: wm.Clone(), at: time.Now()}
	r.mu.Unlock()
}

// snapshot renders the registry against the leader's current position,
// sorted by address for deterministic output.
func (r *replRegistry) snapshot(current Watermark) []FollowerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.followers) == 0 {
		return nil
	}
	end := int64(current.Sum())
	out := make([]FollowerStatus, 0, len(r.followers))
	for addr, f := range r.followers {
		out = append(out, FollowerStatus{
			Addr:          addr,
			Behind:        end - int64(Watermark(f.wm).Sum()),
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
// error names the leader and the machine-readable leader field lets
// routing clients retry there transparently.
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
	case OpAnonymize, OpAnonymizeBatch, OpSetTrust, OpDeregister, OpTouch:
		return true
	default:
		return false
	}
}

// needsStream fails a request for the store's mutation stream (the
// replication ops, incremental backup) in-band when the store has no
// journal to ship.
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
//     frames rather than feed a fork;
//   - a subscriber whose data directory claims leadership of our epoch
//     or an earlier one is a stale leader trying to rejoin — its log may
//     hold acknowledged writes the promotion never saw, so it must
//     re-bootstrap from a backup of the current leader, not resume.
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
	shards := s.store.ShardCount()
	current := s.store.Watermark()
	if len(req.Watermark) != 0 {
		if len(req.Watermark) != shards {
			return fail(fmt.Errorf("%w: watermark of %d elements for %d shards",
				ErrBadOp, len(req.Watermark), shards))
		}
		for i, v := range req.Watermark {
			if v > current[i] {
				return fail(fmt.Errorf("%w: subscriber is ahead on shard %d (%d > %d); its history diverged — re-bootstrap it",
					ErrFenced, i, v, current[i]))
			}
		}
		s.replFollowers.note(req.Follower, req.Watermark)
	} else {
		s.replFollowers.note(req.Follower, make(Watermark, shards))
	}
	resp := newResp(true)
	resp.Epoch = epoch
	resp.Shards = shards
	resp.Watermark = current
	return resp
}

// Bounds on one repl_frames response.
const (
	defaultReplFrames = 512
	maxReplFrames     = 4096
)

// handleReplFrames serves the mutation stream after the follower's
// watermark, shard by shard in stream order.
func (s *Server) handleReplFrames(req *Request) *Response {
	if resp := s.needsStream(); resp != nil {
		return resp
	}
	if !s.isLeader() {
		return s.notLeader()
	}
	epoch, _ := s.store.Epoch()
	if req.Epoch != epoch {
		return fail(fmt.Errorf("%w: subscribed at epoch %d, leader is at %d — re-subscribe",
			ErrFenced, req.Epoch, epoch))
	}
	shards := s.store.ShardCount()
	if len(req.Watermark) != shards {
		return fail(fmt.Errorf("%w: watermark of %d elements for %d shards",
			ErrBadOp, len(req.Watermark), shards))
	}
	budget := req.MaxFrames
	if budget <= 0 {
		budget = defaultReplFrames
	}
	if budget > maxReplFrames {
		budget = maxReplFrames
	}
	// The watermark is read up front (not per TailFrom) so shards skipped
	// once the budget is spent still report a position; a moving tail
	// just means the follower polls again.
	current := s.store.Watermark()
	var frames []StreamFrame
	for i := 0; i < shards && len(frames) < budget; i++ {
		fs, _, err := s.store.TailFrom(i, req.Watermark[i], budget-len(frames))
		if err != nil {
			return fail(err)
		}
		frames = append(frames, fs...)
	}
	resp := newResp(true)
	resp.Epoch = epoch
	resp.Frames = frames
	resp.Watermark = current
	return resp
}

// handleReplAck records a follower's durably applied position.
func (s *Server) handleReplAck(req *Request) *Response {
	if resp := s.needsStream(); resp != nil {
		return resp
	}
	if !s.isLeader() {
		return s.notLeader()
	}
	epoch, _ := s.store.Epoch()
	if req.Epoch != epoch {
		return fail(fmt.Errorf("%w: ack for epoch %d, leader is at %d",
			ErrFenced, req.Epoch, epoch))
	}
	if len(req.Watermark) != s.store.ShardCount() {
		return fail(fmt.Errorf("%w: watermark of %d elements for %d shards",
			ErrBadOp, len(req.Watermark), s.store.ShardCount()))
	}
	s.replFollowers.note(req.Follower, req.Watermark)
	return newResp(true)
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
	if req.TTLMillis < 0 {
		return fail(fmt.Errorf("%w: negative ttl_ms %d", ErrBadOp, req.TTLMillis))
	}
	if req.TTLMillis > int64(maxTTL/time.Millisecond) {
		return fail(fmt.Errorf("%w: ttl_ms %d exceeds maximum %d",
			ErrBadOp, req.TTLMillis, int64(maxTTL/time.Millisecond)))
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
