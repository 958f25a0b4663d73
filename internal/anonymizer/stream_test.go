package anonymizer

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// streamAll drains every shard's tail from the given watermark.
func streamAll(t *testing.T, st *DurableStore, from Watermark) []StreamFrame {
	t.Helper()
	var out []StreamFrame
	for i := 0; i < st.ShardCount(); i++ {
		frames, _, err := st.TailFrom(i, from[i], 0)
		if err != nil {
			t.Fatalf("TailFrom(%d, %d): %v", i, from[i], err)
		}
		out = append(out, frames...)
	}
	return out
}

// TestWatermarkParseFormat pins the CLI spelling round-trip.
func TestWatermarkParseFormat(t *testing.T) {
	w := Watermark{12, 0, 7}
	s := w.String()
	if s != "12,0,7" {
		t.Fatalf("String = %q", s)
	}
	back, err := ParseWatermark(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, back) {
		t.Fatalf("round trip: %v", back)
	}
	if w.Sum() != 19 {
		t.Fatalf("Sum = %d", w.Sum())
	}
	for _, bad := range []string{"", "1,,2", "x", "1,-2"} {
		if _, err := ParseWatermark(bad); err == nil {
			t.Errorf("ParseWatermark(%q) accepted", bad)
		}
	}
}

// TestStreamOffsetsSurviveCompactionAndReopen pins the core stream
// invariant: per-shard offsets are monotonic across snapshot compaction
// and restarts — the log may be rewritten, the positions never move.
func TestStreamOffsetsSurviveCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	st := openDurable(t, dir, WithDurableShards(1), WithSnapshotEvery(0))
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := st.Register(fakeRegistration(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := st.Watermark(); got[0] != 5 {
		t.Fatalf("watermark after 5 registers = %v", got)
	}
	frames := streamAll(t, st, Watermark{0})
	if len(frames) != 5 {
		t.Fatalf("TailFrom(0) = %d frames, want 5", len(frames))
	}
	for i, f := range frames {
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d seq = %d", i, f.Seq)
		}
	}

	// Compaction folds the five records into a snapshot: their offsets
	// are no longer individually servable (gap), but the position holds.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.Watermark(); got[0] != 5 {
		t.Fatalf("watermark after snapshot = %v", got)
	}
	if _, _, err := st.TailFrom(0, 0, 0); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("TailFrom(0) after compaction: err = %v, want ErrStreamGap", err)
	}
	if frames, _, err := st.TailFrom(0, 5, 0); err != nil || len(frames) != 0 {
		t.Fatalf("TailFrom(5) after compaction = %d frames, %v", len(frames), err)
	}

	// New appends continue the sequence.
	if err := st.SetTrust(ids[0], "alice", 1); err != nil {
		t.Fatal(err)
	}
	frames, _, err := st.TailFrom(0, 5, 0)
	if err != nil || len(frames) != 1 || frames[0].Seq != 6 {
		t.Fatalf("post-compaction tail = %+v, %v", frames, err)
	}

	// Reopen: the position survives recovery exactly.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	if got := st2.Watermark(); got[0] != 6 {
		t.Fatalf("watermark after reopen = %v", got)
	}
	// A fresh mutation must take offset 7, never reuse one.
	if _, err := st2.Register(fakeRegistration(t, 1)); err != nil {
		t.Fatal(err)
	}
	if got := st2.Watermark(); got[0] != 7 {
		t.Fatalf("watermark after reopen+register = %v", got)
	}
	// Beyond-end offsets are a divergent-history error, not a silent nil.
	if _, _, err := st2.TailFrom(0, 99, 0); !errors.Is(err, ErrBadOp) {
		t.Fatalf("TailFrom beyond end: %v", err)
	}
}

// TestTailFromIngestRoundTrip pins the replication pipeline at the store
// level: shipping every frame from one store into another through
// TailFrom/IngestFrame reproduces the full visible state, duplicates are
// skipped, and holes are refused.
func TestTailFromIngestRoundTrip(t *testing.T) {
	clk := newFakeClock()
	src := openDurable(t, t.TempDir(), WithDurableShards(4), WithGCInterval(0), WithClock(clk.Now))
	dst := openDurable(t, t.TempDir(), WithDurableShards(4), WithGCInterval(0), WithClock(clk.Now), WithReplica())

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

	frames := streamAll(t, src, make(Watermark, 4))
	for _, f := range frames {
		if _, err := dst.IngestFrame(f); err != nil {
			t.Fatalf("IngestFrame(%d/%d): %v", f.Shard, f.Seq, err)
		}
	}
	if !reflect.DeepEqual(src.Watermark(), dst.Watermark()) {
		t.Fatalf("watermarks diverged: src %v, dst %v", src.Watermark(), dst.Watermark())
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
	hole.Seq += 2
	if _, err := dst.IngestFrame(hole); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("gap ingest: %v", err)
	}
	// A frame whose id does not hash to its shard is corruption.
	bad := frames[0]
	bad.Shard = (bad.Shard + 1) % 4
	bad.Seq = dst.Watermark()[bad.Shard] + 1
	if _, err := dst.IngestFrame(bad); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("cross-shard ingest: %v", err)
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

// TestStreamSeqSpreadAcrossShards sanity-checks that the watermark is
// per-shard: offsets count records in the shard's own stream, not
// globally.
func TestStreamSeqSpreadAcrossShards(t *testing.T) {
	st := openDurable(t, t.TempDir(), WithDurableShards(4))
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	wm := st.Watermark()
	if got := wm.Sum(); got != n {
		t.Fatalf("watermark sum = %d, want %d (%v)", got, n, wm)
	}
	seen := 0
	for i := range wm {
		frames, end, err := st.TailFrom(i, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if end != wm[i] {
			t.Fatalf("shard %d end = %d, watermark %d", i, end, wm[i])
		}
		for j, f := range frames {
			if f.Seq != uint64(j+1) {
				t.Fatalf("shard %d frame %d seq %d", i, j, f.Seq)
			}
		}
		seen += len(frames)
	}
	if seen != n {
		t.Fatalf("streamed %d frames, want %d", seen, n)
	}
}
