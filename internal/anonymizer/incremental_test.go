package anonymizer

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestApplyIncrementalIsExpiryPassive pins the replica semantics of the
// delta apply: a registration whose TTL lapses between the full backup
// and the apply, but whose lease a touch record LATER IN THE DELTA
// renews, must survive — the open-time sweep and mid-apply compaction
// must not reclaim it (the exact failure mode of an apply run through a
// leader-mode store).
func TestApplyIncrementalIsExpiryPassive(t *testing.T) {
	clk := newFakeClock()
	dir := filepath.Join(t.TempDir(), "src")
	st := openDurable(t, dir,
		WithGCInterval(0), WithClock(clk.Now))

	reg := fakeRegistration(t, 1)
	reg.SetExpiry(clk.Now().Add(10 * time.Second))
	id, err := st.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, err := st.WriteBackup(&full); err != nil {
		t.Fatal(err)
	}
	watermark, err := ArchiveWatermark(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The renewal rides in the delta; pad its stripe with enough
	// registrations that an eager compaction cadence would fire mid-apply.
	if _, err := st.Touch(id, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		registerInStripe(t, st, shardIndex(id, shardMask), fakeRegistration(t, 1))
	}
	var delta bytes.Buffer
	if _, _, err := st.WriteIncrementalBackup(&delta, watermark); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The apply happens AFTER the original TTL lapsed, with a compaction
	// cadence aggressive enough to fire during the apply.
	clk.Advance(time.Minute)
	restored := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(full.Bytes()), restored); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyIncremental(bytes.NewReader(delta.Bytes()), restored,
		WithSnapshotEvery(2), WithGCInterval(0), WithClock(clk.Now)); err != nil {
		t.Fatal(err)
	}
	rst := openDurable(t, restored, WithGCInterval(0), WithClock(clk.Now))
	got, err := rst.Lookup(id)
	if err != nil {
		t.Fatalf("renewed registration lost by the incremental apply: %v", err)
	}
	if want := clk.Now().Add(-time.Minute).Add(time.Hour).UnixNano(); got.expiresAt != want {
		t.Fatalf("renewed expiry = %d, want %d", got.expiresAt, want)
	}
}

// TestIncrementalBackupGapAndMisuse pins the refusal paths: a watermark
// compacted away, a full restore of a delta, a delta apply of a full
// archive, an apply whose directory is behind the delta's start, and an
// incremental archive written before LSNs existed.
func TestIncrementalBackupGapAndMisuse(t *testing.T) {
	st := openDurable(t, t.TempDir(), WithSnapshotEvery(0))
	for i := 0; i < 5; i++ {
		if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	base := st.Watermark()

	var full bytes.Buffer
	if _, err := st.WriteBackup(&full); err != nil {
		t.Fatal(err) // quiesces: LSNs 1..5 now live only in the snapshot
	}
	if _, _, err := st.WriteIncrementalBackup(&bytes.Buffer{}, 0); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("compacted watermark: %v", err)
	}
	if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if _, _, err := st.WriteIncrementalBackup(&delta, base); err != nil {
		t.Fatal(err)
	}

	// A delta cannot seed a directory.
	if err := RestoreArchive(bytes.NewReader(delta.Bytes()), filepath.Join(t.TempDir(), "x")); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("restore of delta: %v", err)
	}
	// A full archive cannot be applied as a delta.
	applied := filepath.Join(t.TempDir(), "applied")
	if err := RestoreArchive(bytes.NewReader(full.Bytes()), applied); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyIncremental(bytes.NewReader(full.Bytes()), applied); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("apply of full archive: %v", err)
	}
	// A directory behind the delta's start has a hole: refused.
	behind := filepath.Join(t.TempDir(), "behind")
	bst := openDurable(t, behind)
	if err := bst.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyIncremental(bytes.NewReader(delta.Bytes()), behind); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("apply over a hole: %v", err)
	}
	// An incremental archive written before LSNs existed names its start
	// per shard; it is refused, never half-applied.
	var old []byte
	for _, payload := range []string{
		`{"type":"archive","version":1,"shards":1,"since":[5]}`,
		`{"type":"end","files":0}`,
	} {
		frame, err := appendFrame(nil, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, frame...)
	}
	if _, err := ApplyIncremental(bytes.NewReader(old), applied); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("apply of a per-shard incremental archive: %v", err)
	}
}
