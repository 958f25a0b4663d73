package anonymizer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"
)

// logRecords returns the payloads of the records st's log holds after
// from, in LSN order (the i-th is LSN from+i+1).
func logRecords(t *testing.T, st *DurableStore, from uint64) [][]byte {
	t.Helper()
	raw, _, err := st.log.read(from)
	if err != nil {
		t.Fatalf("log read after %d: %v", from, err)
	}
	var recs [][]byte
	if _, err := readFrames(bytes.NewReader(raw), func(payload []byte) error {
		recs = append(recs, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// recordID decodes a log payload's region ID.
func recordID(t *testing.T, payload []byte) string {
	t.Helper()
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.ID
}

// delta returns st's incremental archive of the records after from.
func delta(t *testing.T, st *DurableStore, from uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := st.WriteIncrementalBackup(&buf, from); err != nil {
		t.Fatalf("WriteIncrementalBackup(%d): %v", from, err)
	}
	return buf.Bytes()
}

// ship lands every record the leader holds past the follower's watermark
// on the follower, one delta the way a replication poll does.
func ship(t *testing.T, leader, follower *DurableStore) *IncrementalStats {
	t.Helper()
	stats, err := follower.ApplyDelta(bytes.NewReader(delta(t, leader, follower.Watermark())))
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	return stats
}

// TestStreamOffsetsSurviveCompactionAndReopen pins the core stream
// invariant: LSNs are monotonic across snapshot compaction and restarts —
// the log may be reclaimed, the positions never move.
func TestStreamOffsetsSurviveCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithSnapshotEvery(0))
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := st.Register(fakeRegistration(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := st.Watermark(); got != 5 {
		t.Fatalf("watermark after 5 registers = %d", got)
	}
	recs := logRecords(t, st, 0)
	if len(recs) != 5 {
		t.Fatalf("log after 0 holds %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if id := recordID(t, rec); id != ids[i] {
			t.Fatalf("LSN %d holds %s, want %s", i+1, id, ids[i])
		}
	}

	// Compaction folds the five records into a snapshot and reclaims their
	// segment: they are no longer servable (gap), but the position holds.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.Watermark(); got != 5 {
		t.Fatalf("watermark after snapshot = %d", got)
	}
	if _, _, err := st.WriteIncrementalBackup(&bytes.Buffer{}, 0); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("delta after 0 past compaction: err = %v, want ErrStreamGap", err)
	}
	if recs := logRecords(t, st, 5); len(recs) != 0 {
		t.Fatalf("log after 5 past compaction holds %d records", len(recs))
	}

	// Reopen with nothing after the compaction: the empty segment's name
	// alone carries the position.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openDurable(t, dir)
	if got := st.Watermark(); got != 5 {
		t.Fatalf("watermark after reopening a compacted log = %d", got)
	}

	// New appends continue the sequence.
	if err := st.SetTrust(ids[0], "alice", 1); err != nil {
		t.Fatal(err)
	}
	if recs := logRecords(t, st, 5); len(recs) != 1 || recordID(t, recs[0]) != ids[0] {
		t.Fatalf("post-compaction log after 5 holds %d records", len(recs))
	}

	// Reopen: the position survives recovery exactly.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	if got := st2.Watermark(); got != 6 {
		t.Fatalf("watermark after reopen = %d", got)
	}
	// A fresh mutation must take LSN 7, never reuse one.
	if _, err := st2.Register(fakeRegistration(t, 1)); err != nil {
		t.Fatal(err)
	}
	if got := st2.Watermark(); got != 7 {
		t.Fatalf("watermark after reopen+register = %d", got)
	}
	// Beyond-end positions are a divergent-history error, not a silent nil.
	if _, _, err := st2.WriteIncrementalBackup(&bytes.Buffer{}, 99); !errors.Is(err, ErrBadOp) {
		t.Fatalf("delta after a position beyond the end: %v", err)
	}
}

// TestApplyDeltaRoundTrip pins the replication pipeline at the store
// level: shipping every record from one store into another as a delta
// (WriteIncrementalBackup, ApplyDelta) reproduces the full visible state
// and the log byte for byte, duplicates are skipped, and holes and full
// archives are refused.
func TestApplyDeltaRoundTrip(t *testing.T) {
	clk := newFakeClock()
	src := openDurable(t, t.TempDir(), WithGCInterval(0), WithClock(clk.Now))
	dst := openDurable(t, t.TempDir(), WithGCInterval(0), WithClock(clk.Now), WithReplica())

	var ids []string
	for i := 0; i < 20; i++ {
		reg := fakeRegistration(t, 2)
		if i%3 == 0 {
			reg.SetExpiry(clk.Now().Add(time.Duration(10+i) * time.Second))
		}
		id, err := src.Register(reg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := src.SetTrust(ids[1], "alice", 1); err != nil {
		t.Fatal(err)
	}
	if err := src.Deregister(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Touch(ids[0], time.Hour); err != nil {
		t.Fatal(err)
	}
	clk.Advance(40 * time.Second) // expires some of the TTL'd ones
	if _, err := src.SweepExpired(); err != nil {
		t.Fatal(err)
	}

	all := delta(t, src, 0)
	stats, err := dst.ApplyDelta(bytes.NewReader(all))
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if src.Watermark() != dst.Watermark() || stats.Applied != int(src.Watermark()) ||
		stats.Since != 0 || stats.End != src.Watermark() {
		t.Fatalf("watermarks src %d, dst %d; delta stats %+v", src.Watermark(), dst.Watermark(), stats)
	}
	if !bytes.Equal(delta(t, dst, 0), all) {
		t.Fatal("the follower's log is not byte-identical to the leader's")
	}
	if src.Len() != dst.Len() {
		t.Fatalf("Len: src %d, dst %d", src.Len(), dst.Len())
	}
	for _, id := range ids {
		want, werr := src.Lookup(id)
		got, gerr := dst.Lookup(id)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("id %s: src err %v, dst err %v", id, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if want.expiresAt != got.expiresAt {
			t.Fatalf("id %s: expiry %d vs %d", id, want.expiresAt, got.expiresAt)
		}
		if !reflect.DeepEqual(want.Grants(), got.Grants()) {
			t.Fatalf("id %s: grants %v vs %v", id, want.Grants(), got.Grants())
		}
		if !reflect.DeepEqual(want.keySet.EncodeHex(), got.keySet.EncodeHex()) {
			t.Fatalf("id %s: key sets diverged", id)
		}
	}

	// Duplicate delivery is a no-op.
	if stats, err := dst.ApplyDelta(bytes.NewReader(all)); err != nil || stats.Applied != 0 {
		t.Fatalf("duplicate delta: %+v, %v", stats, err)
	}
	// A hole is refused loudly: a delta starting past the store's end.
	end := src.Watermark()
	for i := 0; i < 2; i++ {
		if _, err := src.Register(fakeRegistration(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.ApplyDelta(bytes.NewReader(delta(t, src, end+1))); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("delta past the end: %v", err)
	}
	// A full archive cannot extend a store.
	var full bytes.Buffer
	if _, err := src.WriteBackup(&full); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ApplyDelta(&full); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("full archive as a delta: %v", err)
	}
	if dst.Watermark() != end {
		t.Fatalf("refused deltas moved the watermark: %d, want %d", dst.Watermark(), end)
	}
}

// TestReplicaGating: a replica store refuses local mutations and sweeps,
// and flips live on promotion.
func TestReplicaGating(t *testing.T) {
	st := openDurable(t, t.TempDir(), WithReplica())
	if _, err := st.Register(fakeRegistration(t, 1)); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("replica Register: %v", err)
	}
	if _, err := st.Touch("r1", time.Hour); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("replica Touch: %v", err)
	}
	if n, err := st.SweepExpired(); n != 0 || err != nil {
		t.Fatalf("replica sweep: %d, %v", n, err)
	}
	if !st.IsReplica() {
		t.Fatal("IsReplica = false")
	}
	st.SetReplica(false)
	if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
		t.Fatalf("promoted Register: %v", err)
	}
}

// TestEpochRecord pins the leader/lease record's lifecycle: default
// state, persistence, reload.
func TestEpochRecord(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir)
	epoch, leader, exists := st.EpochRecord()
	if epoch != 1 || !leader || exists {
		t.Fatalf("fresh dir epoch record = %d/%v/%v", epoch, leader, exists)
	}
	if err := st.SetEpoch(3, false); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	epoch, leader, exists = st2.EpochRecord()
	if epoch != 3 || leader || !exists {
		t.Fatalf("reloaded epoch record = %d/%v/%v", epoch, leader, exists)
	}
	if err := st2.SetEpoch(0, true); !errors.Is(err, ErrBadOp) {
		t.Fatalf("SetEpoch(0): %v", err)
	}
}

// TestStreamSeqSpreadAcrossShards pins that the position is store-wide:
// the records of every shard share one dense LSN sequence in append
// order, so the watermark counts them all and a delta ships them
// interleaved, whatever shard each belongs to.
func TestStreamSeqSpreadAcrossShards(t *testing.T) {
	st := openDurable(t, t.TempDir())
	const n = 40
	var ids []string
	for i := 0; i < n; i++ {
		id, err := st.Register(fakeRegistration(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := st.Watermark(); got != n {
		t.Fatalf("watermark = %d, want %d", got, n)
	}
	recs := logRecords(t, st, 0)
	if len(recs) != n {
		t.Fatalf("log after 0 holds %d records, want %d", len(recs), n)
	}
	shards := make(map[uint32]bool)
	for i, rec := range recs {
		if id := recordID(t, rec); id != ids[i] {
			t.Fatalf("LSN %d holds %s, want %s", i+1, id, ids[i])
		}
		shards[shardIndex(ids[i], shardMask)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("%d registrations landed in %d shard(s); the test needs several", n, len(shards))
	}
	// A delta from mid-log covers the rest of it, shards interleaved.
	if _, stats, err := st.WriteIncrementalBackup(&bytes.Buffer{}, 10); err != nil ||
		stats.Frames != n-10 || stats.Since != 10 || stats.End != n {
		t.Fatalf("delta after 10 = %+v, %v", stats, err)
	}
}

// TestPerShardWatermarkRefused: a peer from before LSNs sends its
// watermark as a per-shard array. Over JSON that fails to decode, so the
// server drops the connection (or answers in-band) — it never serves
// records, and a mixed-version pair fails its handshake instead of
// mis-syncing.
func TestPerShardWatermarkRefused(t *testing.T) {
	g, density := testGrid(t)
	st := openDurable(t, t.TempDir())
	if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
		t.Fatal(err)
	}
	addr := startTestServer(t, newTestServer(t, g, density, WithStore(st)))
	for _, line := range []string{
		`{"op":"repl_subscribe","follower":"old-peer","watermark":[0,0]}`,
		`{"op":"backup","follower":"old-peer","since":[0,0]}`,
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		var resp map[string]any
		if err := json.NewDecoder(conn).Decode(&resp); err == nil {
			if resp["ok"] != false || resp["archive"] != nil || resp["watermark"] != nil {
				t.Errorf("%s: answered %v, want a refusal or a dropped connection", line, resp)
			}
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: neither answered nor dropped", line)
		}
		_ = conn.Close()
	}
}

// TestReclaimWaitsForReaders: a reader holding the log — a delta
// mid-copy, a hot backup between its snapshot copies and its log read —
// must find every segment it saw. Reclaim deletes nothing while one is
// pinned and catches up at the next compaction after.
func TestReclaimWaitsForReaders(t *testing.T) {
	st := openDurable(t, t.TempDir(), WithSnapshotEvery(0), WithLogSegmentBytes(256))
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	segs := st.WALStats().LogSegments
	if segs < 2 {
		t.Fatalf("%d log segments; the test needs several", segs)
	}
	st.log.pin()
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.WALStats().LogSegments; got != segs {
		t.Fatalf("reclaim deleted segments under a reader: %d left of %d", got, segs)
	}
	if recs := logRecords(t, st, 0); len(recs) != n {
		t.Fatalf("pinned log after 0 holds %d records; want all %d", len(recs), n)
	}
	st.log.unpin()
	if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.WALStats().LogSegments; got != 1 {
		t.Fatalf("%d log segments after the reader left and the log compacted, want 1", got)
	}
}
