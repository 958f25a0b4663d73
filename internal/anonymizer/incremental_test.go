package anonymizer

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// The incremental-backup contract: a full backup plus the incremental
// taken against its watermark reproduces the live store exactly, via the
// same IngestFrame pipeline a replication follower uses.

// TestIncrementalBackupRoundTrip drives a mutation log across a full
// backup boundary and verifies full+delta == live, for both the hot and
// the offline delta writers.
func TestIncrementalBackupRoundTrip(t *testing.T) {
	clk := newFakeClock()
	dir := filepath.Join(t.TempDir(), "src")
	st := openDurable(t, dir,
		WithDurableShards(4), WithGCInterval(0), WithClock(clk.Now))

	var ids []string
	register := func(n int, ttl time.Duration) {
		for i := 0; i < n; i++ {
			reg := fakeRegistration(t, 2)
			if ttl > 0 {
				reg.SetExpiry(clk.Now().Add(ttl))
			}
			id, err := st.Register(reg)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	register(10, 0)
	register(4, 30*time.Second)
	if err := st.SetTrust(ids[0], "alice", 1); err != nil {
		t.Fatal(err)
	}

	// Full backup: its watermark is the incremental's starting point.
	var full bytes.Buffer
	if _, err := st.WriteBackup(&full); err != nil {
		t.Fatal(err)
	}
	watermark, err := ArchiveWatermark(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !equalWatermarks(watermark, st.Watermark()) {
		t.Fatalf("archive watermark %v, store %v", watermark, st.Watermark())
	}

	// Post-backup mutations: registers, a renewal, a deregistration, an
	// expiry sweep — every mutation kind crosses the delta.
	register(6, 0)
	if err := st.SetTrust(ids[1], "bob", 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Deregister(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Touch(ids[10], time.Hour); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if _, err := st.SweepExpired(); err != nil {
		t.Fatal(err)
	}

	var hotDelta bytes.Buffer
	if _, stats, err := st.WriteIncrementalBackup(&hotDelta, watermark); err != nil {
		t.Fatal(err)
	} else if stats.Frames == 0 {
		t.Fatal("incremental backup carried no frames")
	}

	want := digestStore(t, st, ids, nil, nil)
	wantLen := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The offline delta of the closed directory must match coverage.
	var offDelta bytes.Buffer
	if _, stats, err := IncrementalBackupDir(&offDelta, dir, watermark); err != nil {
		t.Fatal(err)
	} else if stats.Frames == 0 {
		t.Fatal("offline incremental carried no frames")
	}

	for name, delta := range map[string]*bytes.Buffer{"hot": &hotDelta, "offline": &offDelta} {
		restored := filepath.Join(t.TempDir(), "restored-"+name)
		if err := RestoreArchive(bytes.NewReader(full.Bytes()), restored); err != nil {
			t.Fatal(err)
		}
		stats, err := ApplyIncremental(bytes.NewReader(delta.Bytes()), restored,
			WithGCInterval(0), WithClock(clk.Now))
		if err != nil {
			t.Fatalf("%s: ApplyIncremental: %v", name, err)
		}
		if stats.Applied == 0 {
			t.Fatalf("%s: nothing applied", name)
		}
		rst := openDurable(t, restored, WithGCInterval(0), WithClock(clk.Now))
		requireSameState(t, "full+"+name+" delta",
			want, digestStore(t, rst, ids, nil, nil), wantLen, rst.Len())
		// Applying the same delta twice is a no-op, not a corruption.
		if err := rst.Close(); err != nil {
			t.Fatal(err)
		}
		stats, err = ApplyIncremental(bytes.NewReader(delta.Bytes()), restored,
			WithGCInterval(0), WithClock(clk.Now))
		if err != nil {
			t.Fatalf("%s: re-apply: %v", name, err)
		}
		if stats.Applied != 0 {
			t.Fatalf("%s: re-apply applied %d records", name, stats.Applied)
		}
	}
}

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
		WithDurableShards(1), WithGCInterval(0), WithClock(clk.Now))

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
	// The renewal rides in the delta; pad with enough registrations that
	// an eager compaction cadence would fire mid-apply.
	if _, err := st.Touch(id, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
			t.Fatal(err)
		}
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

// equalWatermarks compares two watermarks element-wise.
func equalWatermarks(a, b Watermark) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalBackupGapAndMisuse pins the refusal paths: a watermark
// compacted away, a full restore of a delta, a delta apply of a full
// archive, and an apply whose directory is behind the delta's start.
func TestIncrementalBackupGapAndMisuse(t *testing.T) {
	st := openDurable(t, t.TempDir(), WithDurableShards(1), WithSnapshotEvery(0))
	for i := 0; i < 5; i++ {
		if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	base := st.Watermark()

	var full bytes.Buffer
	if _, err := st.WriteBackup(&full); err != nil {
		t.Fatal(err) // quiesces: offsets 1..5 now live only in the snapshot
	}
	if _, _, err := st.WriteIncrementalBackup(&bytes.Buffer{}, Watermark{0}); !errors.Is(err, ErrStreamGap) {
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
	bst := openDurable(t, behind, WithDurableShards(1))
	if err := bst.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyIncremental(bytes.NewReader(delta.Bytes()), behind); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("apply over a hole: %v", err)
	}
}
