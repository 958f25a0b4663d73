package repl

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// writeMasterKeys writes a key file holding the given epochs (payloads
// are deterministic per epoch) with active as the cutting epoch.
func writeMasterKeys(t *testing.T, path string, active uint32, epochs ...uint32) {
	t.Helper()
	type keyFile struct {
		Active uint32            `json:"active"`
		Epochs map[string]string `json:"epochs"`
	}
	kf := keyFile{Active: active, Epochs: map[string]string{}}
	for _, e := range epochs {
		secret := []byte(fmt.Sprintf("rotation-test-master-secret-%08d", e))
		kf.Epochs[fmt.Sprint(e)] = hex.EncodeToString(secret)
	}
	raw, err := json.Marshal(kf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	// Guarantee a visible mtime step so a Reload sees the edit even on
	// coarse filesystem clocks.
	now := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, now, now); err != nil {
		t.Fatal(err)
	}
}

// TestMasterKeyRotationLiveServer rotates the master-key epoch under a
// live derived-keys server: registrations cut before the rotation keep
// reducing (their epoch stays in the keyring), registrations cut after
// it are stamped with the new epoch, and a follower bootstrapped after
// the rotation — with its own copy of the key file and no key bytes on
// the wire — converges to byte-identical state including reductions.
func TestMasterKeyRotationLiveServer(t *testing.T) {
	keyPath := filepath.Join(t.TempDir(), "master-keys.json")
	writeMasterKeys(t, keyPath, 1, 1)
	kr, err := keys.LoadKeyring(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = kr.Close() })

	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	density := func(roadnet.SegmentID) int { return 2 }
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		t.Fatal(err)
	}
	st, err := anonymizer.OpenDurableStore(filepath.Join(t.TempDir(), "leader"),
		anonymizer.WithDurableShards(4), anonymizer.WithKeyring(kr), anonymizer.WithGCInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := anonymizer.NewServer(
		map[cloak.Algorithm]*cloak.Engine{cloak.RGE: engine},
		anonymizer.WithStore(st))
	if err != nil {
		_ = st.Close()
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		_ = st.Close()
	})

	c, err := anonymizer.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}, {K: 14, L: 6}}}

	idOld, regionOld, err := c.Anonymize(33, prof, "RGE")
	if err != nil {
		t.Fatalf("Anonymize before rotation: %v", err)
	}
	if reg, err := st.Lookup(idOld); err != nil || reg.KeyEpoch() != 1 {
		t.Fatalf("pre-rotation registration: epoch %d, %v; want 1", reg.KeyEpoch(), err)
	}

	// Rotate: epoch 2 becomes active, epoch 1 stays resolvable for the
	// registrations already cut under it.
	writeMasterKeys(t, keyPath, 2, 1, 2)
	if reloaded, err := kr.Reload(); err != nil || !reloaded {
		t.Fatalf("Reload after rotation: reloaded=%v err=%v", reloaded, err)
	}
	if got := kr.ActiveEpoch(); got != 2 {
		t.Fatalf("active epoch after rotation = %d, want 2", got)
	}

	idNew, regionNew, err := c.Anonymize(44, prof, "RGE")
	if err != nil {
		t.Fatalf("Anonymize after rotation: %v", err)
	}
	if reg, err := st.Lookup(idNew); err != nil || reg.KeyEpoch() != 2 {
		t.Fatalf("post-rotation registration: epoch %d, %v; want 2", reg.KeyEpoch(), err)
	}

	// Both registrations must reduce end to end: grant full trust, fetch
	// the (re-derived) keys over the wire, and recover the exact segment.
	for _, tc := range []struct {
		id     string
		region *cloak.CloakedRegion
		user   roadnet.SegmentID
	}{{idOld, regionOld, 33}, {idNew, regionNew, 44}} {
		if err := c.SetTrust(tc.id, "doctor", 0); err != nil {
			t.Fatalf("SetTrust(%s): %v", tc.id, err)
		}
		got, err := c.RequestKeys(tc.id, "doctor")
		if err != nil {
			t.Fatalf("RequestKeys(%s): %v", tc.id, err)
		}
		l0, err := engine.Deanonymize(tc.region, got, 0)
		if err != nil {
			t.Fatalf("Deanonymize(%s): %v", tc.id, err)
		}
		if len(l0.Segments) != 1 || l0.Segments[0] != tc.user {
			t.Fatalf("%s recovered %v, want [%d]", tc.id, l0.Segments, tc.user)
		}
	}

	// A follower bootstrapped AFTER the rotation: it gets the mutation
	// stream (key references only — no key material crosses the wire) and
	// its own copy of the key file, and must converge byte-identically,
	// reductions included.
	fkr, err := keys.LoadKeyring(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fkr.Close() })
	f, err := Start(Config{
		LeaderAddr:   addr.String(),
		DataDir:      filepath.Join(t.TempDir(), "follower"),
		Advertise:    "follower-rot",
		PollInterval: 2 * time.Millisecond,
		StoreOptions: []anonymizer.DurabilityOption{anonymizer.WithKeyring(fkr)},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	awaitCatchup(t, st, f)

	ids := []string{idOld, idNew}
	requireSame(t, "rotation follower", digest(t, st, ids), digest(t, f.Store(), ids))
	for _, id := range ids {
		lreg, err := st.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		freg, err := f.Store().Lookup(id)
		if err != nil {
			t.Fatalf("follower Lookup(%s): %v", id, err)
		}
		if lreg.KeyEpoch() != freg.KeyEpoch() {
			t.Fatalf("%s: leader epoch %d, follower epoch %d", id, lreg.KeyEpoch(), freg.KeyEpoch())
		}
		for lv := 0; lv <= lreg.Levels(); lv++ {
			lred, err := lreg.Reduce(engine, lv)
			if err != nil {
				t.Fatalf("leader Reduce(%s, %d): %v", id, lv, err)
			}
			fred, err := freg.Reduce(engine, lv)
			if err != nil {
				t.Fatalf("follower Reduce(%s, %d): %v", id, lv, err)
			}
			lraw, _ := json.Marshal(lred)
			fraw, _ := json.Marshal(fred)
			if string(lraw) != string(fraw) {
				t.Fatalf("%s level %d: reductions diverged across replication", id, lv)
			}
		}
	}
}
