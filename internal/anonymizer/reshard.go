package anonymizer

import (
	"bytes"
	"fmt"
	"os"
)

// ReshardStats describes what an offline Reshard migration moved.
type ReshardStats struct {
	// SourceShards and TargetShards are the shard counts of the two
	// directories (target after power-of-two rounding).
	SourceShards int
	TargetShards int
	// Records is the number of mutation records read from the source
	// (snapshot entries plus WAL records).
	Records int
	// Registrations is the number of live registrations in the migrated
	// store.
	Registrations int
	// TrustUpdates, Deregistrations and Renewals count the WAL mutations
	// replayed.
	TrustUpdates    int
	Deregistrations int
	Renewals        int
	// Expired counts registrations dropped because their TTL had elapsed
	// by migration time — a reshard, like recovery, never resurrects a
	// dead region.
	Expired int
	// TruncatedBytes counts torn source-WAL tail bytes skipped (the source
	// is never modified; reopening it would drop the same bytes).
	TruncatedBytes int64
}

// Reshard migrates a durable data directory to a new shard count: it
// streams every source shard's snapshot, then the log, decodes each
// record back into its typed Mutation, and replays it through the shared
// regTable.apply path into a fresh store at dstDir — the same code path
// recovery uses, so the migrated state can no more drift from the source
// than a reopened store can. Region IDs, trust tables and TTL expiries are
// preserved bit-for-bit (they ride inside the records), and the ID
// allocator resumes past the highest ID the source ever issued, so a
// resharded store never re-issues an ID.
//
// The migration is offline: srcDir must not be open in a live store and is
// only ever read; dstDir must not exist (or be an empty directory). opts
// apply to the destination store (fsync policy, TTL default, ...); a
// WithDurableShards among them is overridden by shards. The destination is
// compacted into snapshots and cleanly closed before Reshard returns, so
// it reopens without any WAL replay.
//
// Why reshard at all: the shard count is fixed in META.json at directory
// initialization, and the right count is workload-dependent — fsync=always
// deployments want few shards (group-commit cohorts grow with writers per
// WAL), fsync=interval deployments want many (parallel background syncs).
func Reshard(srcDir, dstDir string, shards int, opts ...DurabilityOption) (*ReshardStats, error) {
	if shards < 1 {
		return nil, fmt.Errorf("%w: reshard to %d shards", ErrBadOp, shards)
	}
	srcShards, err := readMeta(srcDir)
	if err != nil {
		return nil, err
	}
	if entries, err := os.ReadDir(dstDir); err == nil && len(entries) > 0 {
		return nil, fmt.Errorf("anonymizer: reshard target %s is not empty", dstDir)
	} else if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("anonymizer: reshard target: %w", err)
	}

	dst, err := OpenDurableStore(dstDir, append(append([]DurabilityOption{}, opts...), WithDurableShards(shards))...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = dst.Close() }()

	stats := &ReshardStats{SourceShards: srcShards, TargetShards: len(dst.shards)}
	openNow := dst.cfg.now().UnixNano()
	var maxID uint64
	// The same tally recovery keeps: counted per mutation kind, registers
	// dropped by expiry once per ID.
	tally := newReplayTally()
	ingest := func(rec *walRecord) error {
		if n, ok := parseRegionID(rec.ID); ok && n > maxID {
			maxID = n
		}
		m, err := mutationFromRecord(rec, dst.cfg.keyring)
		if err != nil {
			return err
		}
		stats.Records++
		applied, err := dst.ingest(m, openNow)
		if err != nil {
			return err
		}
		tally.note(m, applied)
		return nil
	}

	if err := reshardSource(srcDir, srcShards, stats, &maxID, ingest); err != nil {
		return nil, err
	}
	stats.TrustUpdates = tally.TrustUpdates
	stats.Deregistrations = tally.Deregistrations
	stats.Renewals = tally.Renewals
	stats.Expired = tally.Expired
	// Replay is expiry-blind (a later touch record may renew a lapsed
	// lease); now that the full stream has replayed, reclaim what is
	// still dead — the same end-of-stream sweep recovery performs.
	for _, sh := range dst.shards {
		sh.mu.Lock()
		stats.Expired += sh.tab.dropExpiredLocked(openNow)
		sh.mu.Unlock()
	}

	// The allocator must clear every ID the source ever issued — including
	// deregistered ones — before the snapshot headers pin it.
	dst.nextID.Store(maxID)
	if err := dst.Snapshot(); err != nil {
		return nil, fmt.Errorf("anonymizer: reshard snapshot: %w", err)
	}
	stats.Registrations = dst.Len()
	if err := dst.Close(); err != nil {
		return nil, fmt.Errorf("anonymizer: reshard close: %w", err)
	}
	return stats, nil
}

// reshardSource streams the source directory into ingest, strictly
// read-only: every shard's snapshot records first, then the log in LSN
// order, skipping each record its shard's snapshot already covers. A
// registration's records all live in one shard, so each still sees its
// snapshot before its later records; records of different registrations
// commute. A torn log tail is tolerated (and counted) like recovery
// tolerates it; a damaged snapshot is real corruption and aborts the
// migration.
func reshardSource(
	srcDir string,
	srcShards int,
	stats *ReshardStats,
	maxID *uint64,
	ingest func(*walRecord) error,
) error {
	snaps, lsns, err := readSnapshots(srcDir, srcShards)
	if err != nil {
		return err
	}
	lg, torn, err := openLogReader(srcDir)
	if err != nil {
		return err
	}
	defer func() { _ = lg.close() }()
	stats.TruncatedBytes += torn
	for _, snap := range snaps {
		if _, err := readRecords(bytes.NewReader(snap), func(rec *walRecord) error {
			if rec.Type == recSnapHeader {
				*maxID = max(*maxID, rec.NextID)
				return nil
			}
			if rec.Type != recRegister {
				return fmt.Errorf("%w: unexpected %q record in snapshot", ErrCorruptLog, rec.Type)
			}
			return ingest(rec)
		}); err != nil {
			return err
		}
	}
	raw, lsn, _, err := lg.tail(lsns)
	if err != nil {
		return err
	}
	mask := uint32(srcShards - 1)
	_, err = readRecords(bytes.NewReader(raw), func(rec *walRecord) error {
		lsn++
		if lsn <= lsns[shardIndex(rec.ID, mask)] {
			return nil // folded into the snapshot already
		}
		return ingest(rec)
	})
	return err
}

// ingest journals and applies one replayed mutation during an offline
// migration — the write path of Reshard. It routes through the same
// appendLocked + regTable.apply pair as the live mutate path, but in
// replay mode: mutations whose target is gone (expired, deregistered in a
// later record) are skipped, never fatal.
func (s *DurableStore) ingest(m *Mutation, openNow int64) (bool, error) {
	sh := s.shardFor(m.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, err := s.appendLocked(sh, recordFromMutation(m)); err != nil {
		return false, err
	}
	applied, err := sh.tab.apply(m, applyReplay, openNow)
	if err != nil {
		return false, err
	}
	// Compact on the usual cadence so a large migration's intermediate WAL
	// files stay bounded; the final Snapshot compacts whatever remains.
	s.maybeSnapshotLocked(sh)
	return applied, nil
}
