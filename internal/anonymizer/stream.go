package anonymizer

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the mutation-stream face of the store's journal: the same
// log that makes the store crash-safe, consumable by position. A position
// is one number, the LSN of the last record the holder has (applied,
// backed up); Watermark is the store's own. The records after a position
// ship as an incremental archive (WriteIncrementalBackup) and land
// through ApplyDelta, which feeds each one to ingest — the exact
// journal+apply pipeline recovery uses. Log-shipping replication
// (internal/anonymizer/repl), incremental backup (backup -since) and
// crash recovery are all consumers of this one abstraction.

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

// Watermark returns the store's stream position: the LSN of the last
// record appended (leader) or ingested (follower); 0 for an empty or
// journal-less store.
func (s *DurableStore) Watermark() uint64 {
	if s.log == nil {
		return 0
	}
	return s.log.lastLSN()
}

// ingest journals and applies one shipped mutation record, the record at
// lsn — the apply path of incremental archives (ApplyDelta), which is how
// both a replication follower and restore -apply take the leader's
// records. It is the same journal-then-apply pipeline the live mutate
// path and recovery use: the payload is appended to the log verbatim at
// lsn (so the follower's log stays byte-identical to the leader's) and
// the decoded mutation routes through regTable.apply in replay mode.
//
// A record at an LSN the log already holds is a duplicate and is skipped
// (applied=false); one that would skip LSNs reports ErrStreamGap — the
// stream has a hole and the consumer must re-sync.
func (s *DurableStore) ingest(lsn uint64, payload []byte) (bool, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return false, fmt.Errorf("%w: shipped record: %v", ErrCorruptLog, err)
	}
	if rec.Type == recSnapHeader {
		return false, fmt.Errorf("%w: %q record in stream", ErrCorruptLog, rec.Type)
	}
	m, err := mutationFromRecord(&rec, s.cfg.keyring)
	if err != nil {
		return false, err
	}
	sh := s.shardFor(m.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	frame, err := appendFrame(sh.buf, payload)
	if err != nil {
		return false, err
	}
	if _, err := s.writeFrameLocked(sh, frame, lsn); err != nil {
		if errors.Is(err, errDuplicateLSN) {
			return false, nil
		}
		return false, err
	}
	s.noteIssuedID(m.ID)
	applied, err := sh.tab.apply(m, applyReplay, 0)
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
// refused, sweeps expire nothing) and leader (false) roles. The sweeper
// runs in both roles, so a promoted store journals the expire of every
// elapsed lease on its next sweep.
func (s *DurableStore) SetReplica(replica bool) { s.replica.Store(replica) }

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
