package anonymizer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// fakeRegistration builds a structurally valid registration without
// running the cloak engine (for store mechanics tests that never
// de-anonymize).
func fakeRegistration(t testing.TB, levels int) *Registration {
	t.Helper()
	ks, err := keys.AutoGenerate(levels)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := accessctl.NewPolicy(levels, levels)
	if err != nil {
		t.Fatal(err)
	}
	region := &cloak.CloakedRegion{
		Algorithm: cloak.RGE,
		Segments:  []roadnet.SegmentID{1, 2, 3, 4, 5},
		Levels:    make([]cloak.LevelMeta, levels),
	}
	steps := len(region.Segments) - 1
	for i := range region.Levels {
		n := steps / levels
		if i == 0 {
			n = steps - (levels-1)*(steps/levels)
		}
		region.Levels[i] = cloak.LevelMeta{Steps: n}
	}
	return NewRegistration(region, ks, policy)
}

// testMasterKeyring builds an in-memory keyring over deterministic
// per-epoch secrets. The last listed epoch is active; epochs defaults to
// {1} when empty.
func testMasterKeyring(tb testing.TB, epochs ...uint32) *keys.Keyring {
	tb.Helper()
	if len(epochs) == 0 {
		epochs = []uint32{1}
	}
	secrets := make(map[uint32][]byte, len(epochs))
	for _, e := range epochs {
		secrets[e] = []byte(fmt.Sprintf("anonymizer-test-master-secret-%08d", e))
	}
	kr, err := keys.NewKeyring(epochs[len(epochs)-1], secrets)
	if err != nil {
		tb.Fatal(err)
	}
	return kr
}

// fakeDerivedRegistration is fakeRegistration's schema-v3 twin: the same
// structurally valid region, but keyed through a (epoch, id, levels)
// reference into a deterministic test keyring instead of stored material.
func fakeDerivedRegistration(tb testing.TB, levels int) *Registration {
	tb.Helper()
	kr := testMasterKeyring(tb)
	stored := fakeRegistration(tb, levels)
	return NewDerivedRegistration(
		stored.region, kr, kr.ActiveEpoch(), "r-derived", levels, stored.policy)
}

// fuzzKeyring is the keyring the fuzz harness decodes derived-key records
// against: it holds epoch 1 (matching fakeDerivedRegistration and the
// hybrid seed) and nothing else, so epoch 999 stays unknown.
func fuzzKeyring(tb testing.TB) *keys.Keyring {
	return testMasterKeyring(tb, 1)
}

// openDurable opens a durable store and registers its cleanup.
func openDurable(t *testing.T, dir string, opts ...DurabilityOption) *DurableStore {
	t.Helper()
	st, err := OpenDurableStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestDurableStoreCrashRecovery is the headline durability test: a store
// under concurrent registration load is abandoned without Close (the
// crash), reopened, and every acknowledged registration must come back
// and de-anonymize byte-identically to the original.
func TestDurableStoreCrashRecovery(t *testing.T) {
	g, density := testGrid(t)
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// FsyncAlways: every acked registration must survive the crash.
	// A small snapshot threshold exercises compaction mid-load too.
	st, err := OpenDurableStore(dir,
		WithFsyncPolicy(FsyncAlways), WithDurableShards(4), WithSnapshotEvery(8))
	if err != nil {
		t.Fatal(err)
	}

	type acked struct {
		regionJSON []byte
		keys       [][]byte
		user       roadnet.SegmentID
	}
	var (
		mu   sync.Mutex
		regs = make(map[string]acked)
	)
	const goroutines, perG = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				user := roadnet.SegmentID(10 + w*perG + i)
				ks, err := keys.AutoGenerate(2)
				if err != nil {
					panic(err)
				}
				region, _, err := engine.Anonymize(cloak.Request{
					UserSegment: user, Profile: testProfile(), Keys: ks.All(),
				})
				if err != nil {
					continue // infeasible cloak: nothing acked, nothing owed
				}
				policy, err := accessctl.NewPolicy(2, 2)
				if err != nil {
					panic(err)
				}
				id, err := st.Register(NewRegistration(region, ks, policy))
				if err != nil {
					panic(fmt.Sprintf("register: %v", err))
				}
				raw, err := json.Marshal(region)
				if err != nil {
					panic(err)
				}
				mu.Lock()
				regs[id] = acked{regionJSON: raw, keys: ks.All(), user: user}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(regs) == 0 {
		t.Fatal("no registrations succeeded; fixture too small")
	}

	// Crash: the first store is abandoned without Close. Reopen the
	// directory as a fresh process would.
	st2 := openDurable(t, dir)
	if got := st2.Len(); got != len(regs) {
		t.Fatalf("recovered %d registrations, acked %d", got, len(regs))
	}
	for id, want := range regs {
		reg, err := st2.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%q) after recovery: %v", id, err)
		}
		raw, err := json.Marshal(reg.Region())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.regionJSON) {
			t.Fatalf("region %q not byte-identical after recovery", id)
		}
		grant := map[int][]byte{1: want.keys[0], 2: want.keys[1]}
		l0, err := engine.Deanonymize(reg.Region(), grant, 0)
		if err != nil {
			t.Fatalf("deanonymize %q after recovery: %v", id, err)
		}
		if len(l0.Segments) != 1 || l0.Segments[0] != want.user {
			t.Fatalf("region %q deanonymized to %v, want [%d]", id, l0.Segments, want.user)
		}
	}
}

// lastLogSegment returns dir's last non-empty unified-log segment — the
// only file a crash can leave a torn tail in.
func lastLogSegment(t *testing.T, dir string) string {
	t.Helper()
	names, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		p := filepath.Join(dir, names[i])
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > 0 {
			return p
		}
	}
	t.Fatal("no non-empty log segment")
	return ""
}

// logBytes sums dir's unified-log segment sizes.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestDurableStoreToleratesTornTail cuts the log mid-record: recovery
// must drop the torn record, keep everything before it, and keep the
// store usable.
func TestDurableStoreToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir,
		WithFsyncPolicy(FsyncAlways), WithDurableShards(1), WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := lastLogSegment(t, dir)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop 3 bytes off the file.
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2 := openDurable(t, dir)
	if got := st2.Len(); got != 9 {
		t.Fatalf("recovered %d registrations after torn tail, want 9", got)
	}
	if st2.Recovery().TruncatedBytes == 0 {
		t.Error("recovery did not report truncated bytes")
	}
	for _, id := range ids[:9] {
		if _, err := st2.Lookup(id); err != nil {
			t.Errorf("Lookup(%q) after torn-tail recovery: %v", id, err)
		}
	}
	if _, err := st2.Lookup(ids[9]); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("torn registration resolved: err = %v, want ErrUnknownRegion", err)
	}
	// The truncated log must be cleanly appendable again.
	id, err := st2.Register(fakeRegistration(t, 2))
	if err != nil {
		t.Fatalf("register after torn-tail recovery: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openDurable(t, dir)
	if _, err := st3.Lookup(id); err != nil {
		t.Errorf("post-recovery registration lost on reopen: %v", err)
	}
	if got := st3.Len(); got != 10 {
		t.Errorf("Len = %d after reopen, want 10", got)
	}
}

// TestDurableStoreGarbageTail appends random bytes after a clean close:
// everything real must survive, the garbage is dropped.
func TestDurableStoreGarbageTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithDurableShards(1), WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(lastLogSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	if got := st2.Len(); got != 5 {
		t.Errorf("recovered %d registrations, want 5", got)
	}
}

// TestDurableStoreReplaysTrustAndDeregister checks that the full mutation
// lifecycle — not just registrations — survives a restart, and that the
// ID allocator never reuses an ID that was ever handed out.
func TestDurableStoreReplaysTrustAndDeregister(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithDurableShards(2))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := st.Register(fakeRegistration(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := st.Register(fakeRegistration(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrust(id1, "alice", 0); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrust(id1, "bob", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Deregister(id2); err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrust(id2, "eve", 0); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("SetTrust on deregistered id: err = %v, want ErrUnknownRegion", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDurable(t, dir)
	if got := st2.Len(); got != 1 {
		t.Fatalf("Len = %d after recovery, want 1", got)
	}
	reg, err := st2.Lookup(id1)
	if err != nil {
		t.Fatal(err)
	}
	for requester, want := range map[string]int{"alice": 0, "bob": 1} {
		if lv, err := reg.policy.LevelFor(requester); err != nil || lv != want {
			t.Errorf("recovered LevelFor(%q) = %d, %v; want %d", requester, lv, err, want)
		}
	}
	if _, err := st2.Lookup(id2); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("deregistered id resolved after recovery: %v", err)
	}
	stats := st2.Recovery()
	if stats.TrustUpdates != 2 || stats.Deregistrations != 1 {
		t.Errorf("recovery stats = %+v, want 2 trust updates and 1 deregistration", stats)
	}
	// Fresh IDs must not collide with anything ever issued — including
	// the deregistered id2.
	id3, err := st2.Register(fakeRegistration(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 || id3 == id2 {
		t.Errorf("recovered store reissued id %q", id3)
	}
}

// TestDurableStoreSnapshotCompaction forces frequent snapshots and checks
// the WAL actually shrinks while the state stays complete.
func TestDurableStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithDurableShards(1), WithSnapshotEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 20; i++ {
		id, err := st.Register(fakeRegistration(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if st.Snapshots() == 0 {
		t.Fatal("no compaction after 20 registrations with threshold 4")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The log retains at most the records since the last snapshot (reclaim
	// drops snapshot-covered segments); with a threshold of 4 it must be
	// far smaller than 20 full records.
	snap, err := os.Stat(filepath.Join(dir, "shard-0000.snap"))
	if err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if wal := logBytes(t, dir); wal >= snap.Size() {
		t.Errorf("log (%d bytes) not compacted below snapshot (%d bytes)", wal, snap.Size())
	}
	st2 := openDurable(t, dir)
	if got := st2.Len(); got != 20 {
		t.Fatalf("recovered %d registrations, want 20", got)
	}
	for _, id := range ids {
		if _, err := st2.Lookup(id); err != nil {
			t.Errorf("Lookup(%q) after compacted recovery: %v", id, err)
		}
	}
}

// TestDurableStoreConcurrentMixed hammers a durable store with mixed
// mutations under -race, closes it cleanly and verifies the reopened
// state matches the survivors exactly.
func TestDurableStoreConcurrentMixed(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir,
		WithDurableShards(4), WithSnapshotEvery(16),
		WithFsyncEvery(5*time.Millisecond), WithSnapshotInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 40
	var (
		mu        sync.Mutex
		live      = make(map[string]bool)
		deregged  = make(map[string]bool)
		wg        sync.WaitGroup
		protoRegs [goroutines]*Registration
	)
	for w := range protoRegs {
		protoRegs[w] = fakeRegistration(t, 2)
	}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id, err := st.Register(protoRegs[w])
				if err != nil {
					panic(err)
				}
				if err := st.SetTrust(id, "reader", 1); err != nil {
					panic(err)
				}
				if i%3 == 0 {
					if err := st.Deregister(id); err != nil {
						panic(err)
					}
					mu.Lock()
					deregged[id] = true
					mu.Unlock()
					continue
				}
				if _, err := st.Lookup(id); err != nil {
					panic(err)
				}
				mu.Lock()
				live[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDurable(t, dir)
	if got := st2.Len(); got != len(live) {
		t.Fatalf("recovered %d registrations, want %d", got, len(live))
	}
	for id := range live {
		reg, err := st2.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", id, err)
		}
		if lv, err := reg.policy.LevelFor("reader"); err != nil || lv != 1 {
			t.Fatalf("LevelFor(reader) on %q = %d, %v; want 1", id, lv, err)
		}
	}
	for id := range deregged {
		if _, err := st2.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
			t.Fatalf("deregistered %q resolved after recovery: %v", id, err)
		}
	}
}

// TestDurableStoreClosedErrors pins the post-Close behavior.
func TestDurableStoreClosedErrors(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			st := openDurable(t, mode.dir, WithDurableShards(1))
			id, err := st.Register(fakeRegistration(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Register(fakeRegistration(t, 1)); !errors.Is(err, ErrStoreClosed) {
				t.Errorf("Register after Close: %v, want ErrStoreClosed", err)
			}
			if err := st.SetTrust(id, "doctor", 0); !errors.Is(err, ErrStoreClosed) {
				t.Errorf("SetTrust after Close: %v, want ErrStoreClosed", err)
			}
			if _, err := st.Touch(id, time.Hour); !errors.Is(err, ErrStoreClosed) {
				t.Errorf("Touch after Close: %v, want ErrStoreClosed", err)
			}
			if err := st.Deregister(id); !errors.Is(err, ErrStoreClosed) {
				t.Errorf("Deregister after Close: %v, want ErrStoreClosed", err)
			}
			if _, err := st.SweepExpired(); !errors.Is(err, ErrStoreClosed) {
				t.Errorf("SweepExpired after Close: %v, want ErrStoreClosed", err)
			}
			if err := st.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

// TestServerDurabilityEndToEnd runs the whole service against a durable
// store, restarts it, and checks regions, trust and deregistrations all
// survived — through the public client API only.
func TestServerDurabilityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	g, density := testGrid(t)

	st1 := openDurable(t, dir, WithFsyncPolicy(FsyncAlways))
	srv1 := newTestServer(t, g, density, WithStore(st1))
	addr1 := startTestServer(t, srv1)
	c1 := dial(t, addr1)

	idKeep, regionKeep, err := c1.Anonymize(42, testProfile(), "RGE")
	if err != nil {
		t.Fatal(err)
	}
	idDrop, _, err := c1.Anonymize(55, testProfile(), "RGE")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.SetTrust(idKeep, "doctor", 0); err != nil {
		t.Fatal(err)
	}
	if err := c1.Deregister(idDrop); err != nil {
		t.Fatal(err)
	}
	wantKeep, err := json.Marshal(regionKeep)
	if err != nil {
		t.Fatal(err)
	}
	reduced1, lv1, err := c1.Reduce(idKeep, "doctor", 0)
	if err != nil {
		t.Fatal(err)
	}
	wantReduced, err := json.Marshal(reduced1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, g, density, WithStore(openDurable(t, dir)))
	addr2 := startTestServer(t, srv2)
	c2 := dial(t, addr2)

	got, _, err := c2.GetRegion(idKeep)
	if err != nil {
		t.Fatalf("GetRegion after restart: %v", err)
	}
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, wantKeep) {
		t.Error("region not byte-identical after restart")
	}
	reduced2, lv2, err := c2.Reduce(idKeep, "doctor", 0)
	if err != nil {
		t.Fatalf("Reduce after restart: %v", err)
	}
	raw2, err := json.Marshal(reduced2)
	if err != nil {
		t.Fatal(err)
	}
	if lv1 != lv2 || !bytes.Equal(raw2, wantReduced) {
		t.Error("server-side reduction not byte-identical after restart")
	}
	if _, _, err := c2.GetRegion(idDrop); err == nil {
		t.Error("deregistered region resolved after restart")
	}
}
