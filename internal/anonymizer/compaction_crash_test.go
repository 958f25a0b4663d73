package anonymizer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// errSimulatedCrash stands in for the process dying at a hook point: the
// snapshot path aborts exactly where a kill would have stopped it, and
// the test then reopens the directory like a fresh process.
var errSimulatedCrash = errors.New("simulated crash")

// maxIssuedID returns the highest region-ID counter value among ids.
func maxIssuedID(t *testing.T, ids []string) uint64 {
	t.Helper()
	var max uint64
	for _, id := range ids {
		n, ok := parseRegionID(id)
		if !ok {
			t.Fatalf("unparseable region id %q", id)
		}
		if n > max {
			max = n
		}
	}
	return max
}

// TestCrashBetweenSnapshotTmpWriteAndRename kills compaction after the
// temp snapshot is fully written but before the rename publishes it. The
// WAL is still authoritative: recovery must restore every registration
// from it, ignore the orphaned .tmp file, and never reissue an ID.
func TestCrashBetweenSnapshotTmpWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.SetTrust(ids[0], "alice", 1); err != nil {
		t.Fatal(err)
	}
	st.hookBeforeSnapRename = func() error { return errSimulatedCrash }
	if err := st.Snapshot(); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("Snapshot with pre-rename crash: err = %v", err)
	}
	// The crash window's on-disk state: tmp written, no published snapshot.
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.snap.tmp")); err != nil {
		t.Fatalf("temp snapshot missing after simulated crash: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.snap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot published despite pre-rename crash (stat err %v)", err)
	}

	// Crash, then reopen as a fresh process would.
	st.crash()
	st2 := openDurable(t, dir)
	if got := st2.Len(); got != len(ids) {
		t.Fatalf("recovered %d registrations, want %d", got, len(ids))
	}
	for _, id := range ids {
		if _, err := st2.Lookup(id); err != nil {
			t.Errorf("Lookup(%q) after pre-rename crash: %v", id, err)
		}
	}
	reg, err := st2.Lookup(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if lv, err := reg.policy.LevelFor("alice"); err != nil || lv != 1 {
		t.Errorf("trust lost across pre-rename crash: LevelFor(alice) = %d, %v", lv, err)
	}
	id, err := st2.Register(fakeRegistration(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseRegionID(id); n <= maxIssuedID(t, ids) {
		t.Errorf("recovered store reissued id %q (max issued %d)", id, maxIssuedID(t, ids))
	}
}

// TestCrashBetweenSnapshotRenameAndWALTruncate kills compaction after the
// first shard's snapshot is published but before its log records become
// reclaimable: that shard's records now exist in both its snapshot and
// the log. Recovery must skip them by LSN — each record applied exactly
// once, which the replay tally counts — count nothing as expired, and
// never reissue an ID. The reopened store then checks reclaim's floor: a
// shard with no un-snapshotted records pins nothing, however old its
// snapshot, while one pending record holds its segment and everything
// after it.
func TestCrashBetweenSnapshotRenameAndWALTruncate(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 32; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	inShard0 := 0
	for _, id := range ids {
		if err := st.SetTrust(id, "alice", 1); err != nil {
			t.Fatal(err)
		}
		if shardIndex(id, shardMask) == 0 {
			inShard0++
		}
	}
	if inShard0 == 0 || inShard0 == len(ids) {
		t.Fatalf("%d of %d registrations in shard 0; the test needs both kinds", inShard0, len(ids))
	}
	st.hookAfterSnapRename = func() error { return errSimulatedCrash }
	if err := st.Snapshot(); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("Snapshot with post-rename crash: err = %v", err)
	}
	// The crash window's on-disk state: shard 0's published snapshot AND
	// the full log (the crash precedes segment reclaim).
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.snap")); err != nil {
		t.Fatalf("snapshot missing after post-rename crash: %v", err)
	}
	if logBytes(t, dir) == 0 {
		t.Fatal("log already reclaimed; the crash window was not reproduced")
	}

	st.crash()
	st2 := openDurable(t, dir, WithLogSegmentBytes(256))
	if got := st2.Len(); got != len(ids) {
		t.Fatalf("recovered %d registrations from snapshot+WAL duplicates, want %d", got, len(ids))
	}
	// Shard 0's trust updates are folded into its snapshot's grants; only
	// the other shards' replay from the log.
	stats := st2.Recovery()
	if want := len(ids) - inShard0; stats.TrustUpdates != want || stats.Registrations != len(ids) || stats.Expired != 0 {
		t.Errorf("recovery stats %+v, want %d registrations, %d trust updates and 0 expired",
			stats, len(ids), want)
	}
	for _, id := range ids {
		reg, err := st2.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if lv, err := reg.policy.LevelFor("alice"); err != nil || lv != 1 {
			t.Errorf("%s: LevelFor(alice) = %d, %v after recovery", id, lv, err)
		}
	}
	id, err := st2.Register(fakeRegistration(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseRegionID(id); n <= maxIssuedID(t, ids) {
		t.Errorf("recovered store reissued id %q (max issued %d)", id, maxIssuedID(t, ids))
	}

	// Reclaim's floor. After a full compaction no shard has pending
	// records; then only one shard churns and compacts, across several
	// segments, while the others sit idle behind older snapshots.
	if err := st2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	busy := st2.shardFor(ids[0])
	var busyIDs, idleIDs []string
	for _, id := range ids {
		if st2.shardFor(id) == busy {
			busyIDs = append(busyIDs, id)
		} else {
			idleIDs = append(idleIDs, id)
		}
	}
	churn := func() {
		t.Helper()
		for i := 0; i < 12; i++ {
			if err := st2.SetTrust(busyIDs[i%len(busyIDs)], "bob", i%2); err != nil {
				t.Fatal(err)
			}
		}
		busy.mu.Lock()
		err := st2.snapshotShardLocked(busy, st2.log.lastLSN())
		busy.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	churn()
	if segs := st2.WALStats().LogSegments; segs != 1 {
		t.Fatalf("idle shards pinned reclaim: %d log segments after the busy shard compacted, want 1", segs)
	}
	// One pending record of an idle shard holds the log from its LSN on.
	if err := st2.SetTrust(idleIDs[0], "carol", 0); err != nil {
		t.Fatal(err)
	}
	pinned := st2.Watermark()
	churn()
	if first := st2.log.segs[0]; first.base > pinned || first.next() <= pinned {
		t.Fatalf("oldest segment holds LSNs [%d, %d), want the pending record's LSN %d",
			first.base, first.next(), pinned)
	}
	if segs := st2.WALStats().LogSegments; segs < 2 {
		t.Fatalf("%d log segments; the pending record's segment and the churn after it should remain", segs)
	}

	// A reopen after a clean close must also converge.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openDurable(t, dir)
	if got := st3.Len(); got != len(ids)+1 {
		t.Fatalf("Len = %d after reopen, want %d", got, len(ids)+1)
	}
}

// TestBackupAfterCompactionCrash: a store that crashed mid-compaction
// must still produce a backup that restores byte-identically — backup
// runs Snapshot first, which retries the interrupted compaction.
func TestBackupAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := st.Register(fakeRegistration(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st.hookBeforeSnapRename = func() error { return errSimulatedCrash }
	if err := st.Snapshot(); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("Snapshot: %v", err)
	}
	st.crash()
	st2 := openDurable(t, dir)

	var buf bytes.Buffer
	if _, err := st2.WriteBackup(&buf); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	rst := openDurable(t, dst)
	if rst.Len() != len(ids) {
		t.Fatalf("restored Len = %d, want %d", rst.Len(), len(ids))
	}
}

// TestSnapshotPastLostLogTail: a machine crash can lose the log's
// unsynced tail after a snapshot covering it was made durable, leaving a
// snapshot whose LSN lies past the log's end. Records appended after
// recovery must not take LSNs that snapshot claims to cover, or the next
// recovery would skip them as already folded in.
func TestSnapshotPastLostLogTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithSnapshotEvery(0), WithFsyncPolicy(FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		registerInStripe(t, st, 0, fakeRegistration(t, 1))
	}
	// Stripe 0 snapshots first, at LSN 3; "crash" right after, before
	// reclaim, and lose records 2-3 from the log, as a machine crash
	// drops writes never fsynced.
	st.hookAfterSnapRename = func() error { return errSimulatedCrash }
	if err := st.Snapshot(); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("Snapshot: %v", err)
	}
	st.crash()
	seg := lastLogSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	first := walHeaderSize + int(binary.LittleEndian.Uint32(raw[0:4]))
	if err := os.Truncate(seg, int64(first)); err != nil {
		t.Fatal(err)
	}

	st2 := openDurable(t, dir)
	if got := st2.Len(); got != 3 {
		t.Fatalf("recovered %d registrations, want the snapshot's 3", got)
	}
	id, err := st2.Register(fakeRegistration(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openDurable(t, dir)
	if _, err := st3.Lookup(id); err != nil {
		t.Fatalf("registration acknowledged after the lost tail vanished on the next recovery: %v", err)
	}
	if got := st3.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
}
