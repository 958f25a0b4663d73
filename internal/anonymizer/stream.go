package anonymizer

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the mutation-stream face of the store's journal: the same
// unified log that makes the store crash-safe, consumable as per-shard
// addressable streams (each shard's offset index maps stream positions
// to frames in the shared segments). Every mutation record carries a monotonic per-shard
// stream offset (walRecord.Seq, preserved across snapshot compactions by
// the snapshot header's StreamSeq), a Watermark names a position across
// all shards, TailFrom serves the records after a position, and
// IngestFrame applies shipped records through the exact journal+apply
// pipeline recovery uses. Log-shipping replication (internal/anonymizer/
// repl), incremental backup (backup -since) and crash recovery are all
// consumers of this one abstraction.

// Errors of the stream and replication layer.
var (
	// ErrNotLeader reports a mutation attempted on a replication
	// follower; the client should retry against the leader (the wire
	// response carries its address).
	ErrNotLeader = errors.New("anonymizer: not the leader")
	// ErrStreamGap reports a stream position that is no longer servable:
	// snapshot compaction folded the requested records into a snapshot,
	// so the consumer (a lagging follower, a stale incremental-backup
	// watermark) must restart from a full backup instead.
	ErrStreamGap = errors.New("anonymizer: stream position compacted away")
	// ErrFenced reports a replication peer rejected for epoch reasons: a
	// stale leader trying to rejoin without re-bootstrapping, or a node
	// discovering a newer leader epoch than its own.
	ErrFenced = errors.New("anonymizer: fenced by a newer replication epoch")
)

// Watermark is a stream position across every shard of a durable store:
// element i is the offset of the last mutation record of shard i that
// the holder has (applied, backed up, acked). The zero position of a
// k-shard store is k zeros.
type Watermark []uint64

// String renders the watermark in its CLI spelling: comma-separated
// per-shard offsets ("12,0,7,3").
func (w Watermark) String() string {
	parts := make([]string, len(w))
	for i, v := range w {
		parts[i] = strconv.FormatUint(v, 10)
	}
	return strings.Join(parts, ",")
}

// Sum returns the total number of stream records the watermark covers —
// the scalar used for lag arithmetic.
func (w Watermark) Sum() uint64 {
	var n uint64
	for _, v := range w {
		n += v
	}
	return n
}

// Clone returns an independent copy.
func (w Watermark) Clone() Watermark {
	cp := make(Watermark, len(w))
	copy(cp, w)
	return cp
}

// ParseWatermark parses the String spelling back into a watermark.
func ParseWatermark(s string) (Watermark, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%w: empty watermark", ErrBadOp)
	}
	parts := strings.Split(s, ",")
	w := make(Watermark, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: watermark element %d: %v", ErrBadOp, i, err)
		}
		w[i] = v
	}
	return w, nil
}

// StreamFrame is one shipped mutation record: the shard it belongs to,
// its stream offset, and the record's exact WAL payload bytes. Frames
// cross the wire as-is (Rec is raw JSON), and followers journal the
// payload verbatim, so a replicated shard's log is byte-identical to the
// leader's.
type StreamFrame struct {
	Shard int             `json:"shard"`
	Seq   uint64          `json:"seq"`
	Rec   json.RawMessage `json:"rec"`
}

// ShardCount returns the store's shard count (fixed at directory
// initialization).
func (s *DurableStore) ShardCount() int { return len(s.shards) }

// Watermark returns the store's current stream position: per shard, the
// offset of the last mutation record appended (leader) or applied
// (follower).
func (s *DurableStore) Watermark() Watermark {
	w := make(Watermark, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		w[i] = sh.streamSeq
		sh.mu.RUnlock()
	}
	return w
}

// TailFrom reads shard's mutation records with offsets in (after,
// after+max] order — the stream consumed by replication and incremental
// backup. It returns the frames, the shard's current end offset, and:
//
//   - ErrStreamGap when records after `after` were already folded into a
//     snapshot (the consumer must restart from a full backup);
//   - ErrBadOp when after lies beyond the shard's end (the consumer's
//     position comes from a different history).
//
// max <= 0 means no bound. The shard's offset index maps each stream
// position to its frame in the unified log; the read lock is held across
// the reads, which pins the shard's snapSeq and thereby (segment reclaim
// only deletes snapshot-covered prefixes) every segment the index points
// into.
func (s *DurableStore) TailFrom(shard int, after uint64, max int) ([]StreamFrame, uint64, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, 0, fmt.Errorf("%w: shard %d of %d", ErrBadOp, shard, len(s.shards))
	}
	if s.closed.Load() {
		return nil, 0, ErrStoreClosed
	}
	if err := s.needsJournal("replication"); err != nil {
		return nil, 0, err
	}
	sh := s.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	end := sh.streamSeq
	switch {
	case after > end:
		return nil, end, fmt.Errorf("%w: offset %d beyond shard %d end %d",
			ErrBadOp, after, shard, end)
	case after == end:
		return nil, end, nil
	case after < sh.snapSeq:
		return nil, end, fmt.Errorf("%w: shard %d offset %d, oldest streamable %d",
			ErrStreamGap, shard, after, sh.snapSeq)
	}
	first := sort.Search(len(sh.entries), func(i int) bool { return sh.entries[i].seq > after })
	var frames []StreamFrame
	for _, e := range sh.entries[first:] {
		if max > 0 && len(frames) >= max {
			break
		}
		frame := make([]byte, e.n)
		if _, err := e.seg.f.ReadAt(frame, e.off); err != nil {
			return nil, end, fmt.Errorf("anonymizer: stream read: %w", err)
		}
		payload, err := framePayload(frame)
		if err != nil {
			return nil, end, err
		}
		frames = append(frames, StreamFrame{Shard: shard, Seq: e.seq, Rec: json.RawMessage(payload)})
	}
	return frames, end, nil
}

// IngestFrame journals and applies one shipped mutation record — the
// follower half of log shipping, and the apply path of incremental
// restore. It is the same journal-then-apply pipeline the live mutate
// path and recovery use: the payload is appended to the unified log
// verbatim (so the follower's stream stays byte-identical to the leader's)
// and the decoded mutation routes through regTable.apply in replay mode.
//
// Frames at or below the shard's current position are duplicates and are
// skipped (applied=false); a frame that would skip offsets reports
// ErrStreamGap — the stream has a hole and the consumer must re-sync.
func (s *DurableStore) IngestFrame(f StreamFrame) (bool, error) {
	if s.closed.Load() {
		return false, ErrStoreClosed
	}
	if err := s.needsJournal("replication"); err != nil {
		return false, err
	}
	if f.Shard < 0 || f.Shard >= len(s.shards) {
		return false, fmt.Errorf("%w: shard %d of %d", ErrBadOp, f.Shard, len(s.shards))
	}
	var rec walRecord
	if err := json.Unmarshal(f.Rec, &rec); err != nil {
		return false, fmt.Errorf("%w: frame payload: %v", ErrCorruptLog, err)
	}
	if rec.Type == recSnapHeader {
		return false, fmt.Errorf("%w: %q record in stream", ErrCorruptLog, rec.Type)
	}
	m, err := mutationFromRecord(&rec, s.cfg.keyring)
	if err != nil {
		return false, err
	}
	if int(shardIndex(m.ID, s.mask)) != f.Shard {
		return false, fmt.Errorf("%w: id %q does not hash to shard %d",
			ErrCorruptLog, m.ID, f.Shard)
	}
	payload := []byte(f.Rec)
	if rec.Seq != f.Seq {
		// A stream source without embedded offsets (pre-offset WAL): stamp
		// the frame's offset into the journaled payload so this store's
		// own recovery and tail readers see the same numbering.
		rec.Seq = f.Seq
		if payload, err = json.Marshal(&rec); err != nil {
			return false, fmt.Errorf("anonymizer: re-encoding frame: %w", err)
		}
	}
	now := s.cfg.now().UnixNano()
	sh := s.shards[f.Shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case f.Seq <= sh.streamSeq:
		return false, nil // duplicate delivery: already journaled
	case f.Seq != sh.streamSeq+1:
		return false, fmt.Errorf("%w: shard %d at %d, frame at %d",
			ErrStreamGap, f.Shard, sh.streamSeq, f.Seq)
	}
	if _, err := s.appendRawLocked(sh, payload, f.Seq); err != nil {
		return false, err
	}
	s.noteIssuedID(m.ID)
	applied, err := sh.tab.apply(m, applyReplay, now)
	if err != nil {
		return false, err
	}
	s.maybeSnapshotLocked(sh)
	return applied, nil
}

// noteIssuedID raises the ID allocator past an ID observed in a shipped
// or replayed record, so a promoted follower never re-issues one.
func (s *DurableStore) noteIssuedID(id string) {
	n, ok := parseRegionID(id)
	if !ok {
		return
	}
	for {
		cur := s.nextID.Load()
		if n <= cur || s.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// SetReplica flips the store between follower (true: local mutations
// refused, sweeper off) and leader (false) roles. Promotion calls
// SetReplica(false) and the sweeper starts on the next expiring
// registration — or immediately, if recovered state can expire.
func (s *DurableStore) SetReplica(replica bool) {
	s.replica.Store(replica)
	if !replica {
		for _, sh := range s.shards {
			sh.mu.RLock()
			canExpire := false
			for _, reg := range sh.tab.regs {
				if reg.expiresAt != 0 {
					canExpire = true
					break
				}
			}
			sh.mu.RUnlock()
			if canExpire {
				s.ensureSweeper()
				return
			}
		}
	}
}

// IsReplica reports whether the store currently refuses local mutations.
func (s *DurableStore) IsReplica() bool { return s.replica.Load() }

// epochFile is the leader/lease record of a data directory. It is not
// part of backup archives: a restored or bootstrapped directory must
// derive its role from the operator (or the leader it subscribes to),
// never inherit one.
const epochFile = "EPOCH.json"

// epochRecord is the JSON shape of EPOCH.json.
type epochRecord struct {
	Version int    `json:"version"`
	Epoch   uint64 `json:"epoch"`
	Leader  bool   `json:"leader"`
}

// loadEpoch reads the directory's epoch record at open. A directory
// without one defaults to epoch 1, leader — the standalone/seed state —
// but remembers that no record existed (EpochRecord), so a fresh
// bootstrap can tell "never replicated" from "was the leader".
func (s *DurableStore) loadEpoch() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, epochFile))
	if errors.Is(err, os.ErrNotExist) {
		s.epochVal, s.epochLeader, s.epochKnown = 1, true, false
		return nil
	}
	if err != nil {
		return fmt.Errorf("anonymizer: reading %s: %w", epochFile, err)
	}
	var rec epochRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("anonymizer: parsing %s: %w", epochFile, err)
	}
	if rec.Version != 1 || rec.Epoch == 0 {
		return fmt.Errorf("anonymizer: unsupported epoch record %+v", rec)
	}
	s.epochVal, s.epochLeader, s.epochKnown = rec.Epoch, rec.Leader, true
	return nil
}

// Epoch returns the store's replication epoch and whether the data
// directory's record claims leadership of it.
func (s *DurableStore) Epoch() (uint64, bool) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epochVal, s.epochLeader
}

// EpochRecord is Epoch plus whether an explicit record exists on disk
// (false for directories that never participated in replication).
func (s *DurableStore) EpochRecord() (epoch uint64, leader, exists bool) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epochVal, s.epochLeader, s.epochKnown
}

// SetEpoch persists a new epoch record (write + fsync + rename, like
// every other directory-level artifact) and updates the in-memory view.
// Promotion is SetEpoch(staleLeaderEpoch+1, true) followed by
// SetReplica(false); subscription is SetEpoch(leaderEpoch, false).
func (s *DurableStore) SetEpoch(epoch uint64, leader bool) error {
	if epoch == 0 {
		return fmt.Errorf("%w: epoch 0", ErrBadOp)
	}
	if err := s.needsJournal("replication"); err != nil {
		return err
	}
	raw, err := json.Marshal(epochRecord{Version: 1, Epoch: epoch, Leader: leader})
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	path := filepath.Join(s.dir, epochFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("anonymizer: writing epoch record: %w", err)
	}
	_, err = f.Write(raw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("anonymizer: writing epoch record: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.epochMu.Lock()
	s.epochVal, s.epochLeader, s.epochKnown = epoch, leader, true
	s.epochMu.Unlock()
	return nil
}
