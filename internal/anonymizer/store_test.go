package anonymizer

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// storeModes names the two ways the one store opens, as subtest name and
// directory: journal-less (no directory) and journaling into a fresh
// t.TempDir(). Every store-lifecycle test runs through both, so the
// lifecycle cannot drift between them.
func storeModes(t *testing.T) []struct{ name, dir string } {
	t.Helper()
	return []struct{ name, dir string }{
		{"memory", ""},
		{"durable", t.TempDir()},
	}
}

func TestShardedStoreRegisterLookup(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			st := openDurable(t, mode.dir)
			ids := make(map[string]*Registration)
			for i := 0; i < 100; i++ {
				reg := fakeRegistration(t, 1)
				id, err := st.Register(reg)
				if err != nil {
					t.Fatalf("Register: %v", err)
				}
				if _, dup := ids[id]; dup {
					t.Fatalf("duplicate id %q", id)
				}
				ids[id] = reg
			}
			if st.Len() != 100 {
				t.Errorf("Len = %d, want 100", st.Len())
			}
			for id, want := range ids {
				got, err := st.Lookup(id)
				if err != nil {
					t.Fatalf("Lookup(%q): %v", id, err)
				}
				if got != want {
					t.Errorf("Lookup(%q) returned a different registration", id)
				}
			}
		})
	}
}

func TestShardedStoreLookupErrors(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			st := openDurable(t, mode.dir)
			if _, err := st.Lookup(""); !errors.Is(err, ErrBadOp) {
				t.Errorf("empty id err = %v, want ErrBadOp", err)
			}
			if _, err := st.Lookup("r999"); !errors.Is(err, ErrUnknownRegion) {
				t.Errorf("unknown id err = %v, want ErrUnknownRegion", err)
			}
		})
	}
}

// TestShardedStoreConcurrent hammers the store from many goroutines; run
// under -race this proves the striping is sound and IDs never collide.
func TestShardedStoreConcurrent(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			st := openDurable(t, mode.dir)
			proto := fakeRegistration(t, 1)
			const goroutines, perG = 16, 200
			idCh := make(chan string, goroutines*perG)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						reg := *proto
						id, err := st.Register(&reg)
						if err != nil {
							panic(fmt.Sprintf("register: %v", err))
						}
						got, err := st.Lookup(id)
						if err != nil || got != &reg {
							panic(fmt.Sprintf("lost registration %q: %v", id, err))
						}
						idCh <- id
					}
				}()
			}
			wg.Wait()
			close(idCh)
			seen := make(map[string]bool)
			for id := range idCh {
				if seen[id] {
					t.Fatalf("duplicate id %q across goroutines", id)
				}
				seen[id] = true
			}
			if st.Len() != goroutines*perG {
				t.Errorf("Len = %d, want %d", st.Len(), goroutines*perG)
			}
		})
	}
}

// TestJournalLessStore pins what "no directory" means: every option that
// only configures the journal is accepted and inert (the store still
// registers, as a leader, and leaves nothing on disk), and every method
// that reads or ships the journal refuses with ErrBadOp.
func TestJournalLessStore(t *testing.T) {
	st := openDurable(t, "",
		WithFsyncPolicy(FsyncAlways), WithFsyncEvery(time.Millisecond),
		WithSnapshotEvery(1), WithSnapshotInterval(time.Millisecond),
		WithLogSegmentBytes(64), WithReplica())
	if st.IsReplica() {
		t.Fatal("WithReplica took effect on a journal-less store")
	}
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		ids = append(ids, id)
	}
	if err := st.SetTrust(ids[0], "doctor", 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Deregister(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
	if got := st.Len(); got != 7 {
		t.Errorf("Len = %d, want 7", got)
	}
	if st.dir != "" || st.Snapshots() != 0 || st.WALStats() != (WALStats{}) || st.Watermark() != 0 {
		t.Errorf("journal-less store reports a journal: dir %q, %d snapshots, %+v, watermark %d",
			st.dir, st.Snapshots(), st.WALStats(), st.Watermark())
	}

	for what, err := range map[string]error{
		"Snapshot":    st.Snapshot(),
		"WriteBackup": func() error { _, err := st.WriteBackup(&bytes.Buffer{}); return err }(),
		"WriteIncrementalBackup": func() error {
			_, _, err := st.WriteIncrementalBackup(&bytes.Buffer{}, st.Watermark())
			return err
		}(),
		"ApplyDelta": func() error { _, err := st.ApplyDelta(bytes.NewReader(nil)); return err }(),
		"SetEpoch":   st.SetEpoch(2, true),
	} {
		if !errors.Is(err, ErrBadOp) {
			t.Errorf("%s on a journal-less store: %v, want ErrBadOp", what, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A write against the empty directory name would land in the working
	// directory.
	for _, pattern := range []string{"META.json*", "EPOCH.json*", "wal-*.seg", "shard-*.snap*", ".tmp"} {
		if left, _ := filepath.Glob(pattern); len(left) != 0 {
			t.Errorf("journal-less store left files behind: %v", left)
		}
	}
}
