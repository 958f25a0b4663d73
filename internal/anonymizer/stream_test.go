package anonymizer

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"
)

// streamAll drains the log from the given position.
func streamAll(t *testing.T, st *DurableStore, from uint64) []StreamFrame {
	t.Helper()
	frames, _, err := st.TailFrom(from, 0)
	if err != nil {
		t.Fatalf("TailFrom(%d): %v", from, err)
	}
	return frames
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
	frames := streamAll(t, st, 0)
	if len(frames) != 5 {
		t.Fatalf("TailFrom(0) = %d frames, want 5", len(frames))
	}
	for i, f := range frames {
		if f.LSN != uint64(i+1) {
			t.Fatalf("frame %d LSN = %d", i, f.LSN)
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
	if _, _, err := st.TailFrom(0, 0); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("TailFrom(0) after compaction: err = %v, want ErrStreamGap", err)
	}
	if frames, _, err := st.TailFrom(5, 0); err != nil || len(frames) != 0 {
		t.Fatalf("TailFrom(5) after compaction = %d frames, %v", len(frames), err)
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
	frames, _, err := st.TailFrom(5, 0)
	if err != nil || len(frames) != 1 || frames[0].LSN != 6 {
		t.Fatalf("post-compaction tail = %+v, %v", frames, err)
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
	if _, _, err := st2.TailFrom(99, 0); !errors.Is(err, ErrBadOp) {
		t.Fatalf("TailFrom beyond end: %v", err)
	}
}

// TestTailFromIngestRoundTrip pins the replication pipeline at the store
// level: shipping every frame from one store into another through
// TailFrom/IngestFrame reproduces the full visible state and the log
// byte for byte, duplicates are skipped, and holes are refused.
func TestTailFromIngestRoundTrip(t *testing.T) {
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

	frames := streamAll(t, src, 0)
	for _, f := range frames {
		if _, err := dst.IngestFrame(f); err != nil {
			t.Fatalf("IngestFrame(%d): %v", f.LSN, err)
		}
	}
	if src.Watermark() != dst.Watermark() {
		t.Fatalf("watermarks diverged: src %d, dst %d", src.Watermark(), dst.Watermark())
	}
	if !reflect.DeepEqual(streamAll(t, dst, 0), frames) {
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
	if applied, err := dst.IngestFrame(frames[0]); err != nil || applied {
		t.Fatalf("duplicate ingest: applied=%v err=%v", applied, err)
	}
	// A hole is refused loudly.
	hole := frames[len(frames)-1]
	hole.LSN += 2
	if _, err := dst.IngestFrame(hole); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("gap ingest: %v", err)
	}
	// A frame without a position is corruption.
	if _, err := dst.IngestFrame(StreamFrame{Rec: frames[0].Rec}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("LSN-less ingest: %v", err)
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
// order, so the watermark counts them all and TailFrom serves them
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
	frames, end, err := st.TailFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != n || len(frames) != n {
		t.Fatalf("TailFrom(0) = %d frames ending at %d, want %d", len(frames), end, n)
	}
	shards := make(map[uint32]bool)
	for i, f := range frames {
		var rec walRecord
		if err := json.Unmarshal(f.Rec, &rec); err != nil {
			t.Fatal(err)
		}
		if f.LSN != uint64(i+1) || rec.ID != ids[i] {
			t.Fatalf("frame %d: LSN %d id %s, want LSN %d id %s", i, f.LSN, rec.ID, i+1, ids[i])
		}
		shards[shardIndex(rec.ID, shardMask)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("%d registrations landed in %d shard(s); the test needs several", n, len(shards))
	}
	// A bounded read stops at its budget and still reports the end.
	if frames, end, err := st.TailFrom(10, 5); err != nil || len(frames) != 5 || frames[0].LSN != 11 || end != n {
		t.Fatalf("TailFrom(10, 5) = %d frames from %v, end %d, %v", len(frames), frames, end, err)
	}
}

// TestPerShardWatermarkRefused: a peer from before LSNs sends its
// watermark as a per-shard array. Over JSON that fails to decode, so the
// server drops the connection (or answers in-band) — it never serves
// frames, and a mixed-version pair fails its handshake instead of
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
		`{"op":"repl_frames","epoch":1,"watermark":[0,0]}`,
		`{"op":"repl_ack","epoch":1,"watermark":[1,0]}`,
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
			if resp["ok"] != false || resp["frames"] != nil || resp["watermark"] != nil {
				t.Errorf("%s: answered %v, want a refusal or a dropped connection", line, resp)
			}
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: neither answered nor dropped", line)
		}
		_ = conn.Close()
	}
}

// TestReclaimWaitsForReaders: a reader holding the log — a stream tail
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
	if frames, _, err := st.TailFrom(0, 0); err != nil || len(frames) != n {
		t.Fatalf("pinned TailFrom(0) = %d frames, %v; want all %d", len(frames), err, n)
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
