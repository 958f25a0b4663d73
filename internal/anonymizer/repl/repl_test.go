package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// testCluster is a leader server (durable store) ready for followers.
type testCluster struct {
	store  *anonymizer.DurableStore
	server *anonymizer.Server
	addr   string
	engine *cloak.Engine
}

// newLeader builds a durable leader server over a grid map.
func newLeader(t *testing.T, dir string, opts ...anonymizer.DurabilityOption) *testCluster {
	t.Helper()
	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	density := func(roadnet.SegmentID) int { return 2 }
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		t.Fatal(err)
	}
	st, err := anonymizer.OpenDurableStore(dir,
		append([]anonymizer.DurabilityOption{anonymizer.WithDurableShards(4)}, opts...)...)
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
	return &testCluster{store: st, server: srv, addr: addr.String(), engine: engine}
}

// startFollowerServer wraps a Follower in a server so the wire surface
// (redirects, repl_status, promote) is under test too.
func startFollowerServer(t *testing.T, f *Follower, engine *cloak.Engine) (*anonymizer.Server, string) {
	t.Helper()
	srv, err := anonymizer.NewServer(
		map[cloak.Algorithm]*cloak.Engine{cloak.RGE: engine},
		anonymizer.WithStore(f.Store()), anonymizer.WithReplicator(f))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr.String()
}

// awaitCatchup waits until the follower's watermark reaches the leader's.
func awaitCatchup(t *testing.T, leader *anonymizer.DurableStore, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if reflect.DeepEqual(leader.Watermark(), f.Store().Watermark()) {
			return
		}
		if err := f.Err(); err != nil {
			t.Fatalf("follower failed while catching up: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: leader %v, follower %v",
				leader.Watermark(), f.Store().Watermark())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fakeReg builds a registration with generated keys (no engine cloak
// needed; the store treats regions opaquely).
func fakeReg(t *testing.T, levels int) *anonymizer.Registration {
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
		Segments:  []roadnet.SegmentID{1, 2, 3},
		Levels:    make([]cloak.LevelMeta, levels),
	}
	for i := range region.Levels {
		region.Levels[i] = cloak.LevelMeta{Steps: 1}
	}
	return anonymizer.NewRegistration(region, ks, policy)
}

// digest captures one node's visible state over a set of IDs: region
// bytes, policy, expiry — absence included. Byte-identical digests mean
// byte-identical dumps.
func digest(t *testing.T, st *anonymizer.DurableStore, ids []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		reg, err := st.Lookup(id)
		if err != nil {
			if !errors.Is(err, anonymizer.ErrUnknownRegion) {
				t.Fatalf("Lookup(%q): %v", id, err)
			}
			out[id] = "<absent>"
			continue
		}
		raw, err := json.Marshal(reg.Region())
		if err != nil {
			t.Fatal(err)
		}
		out[id] = fmt.Sprintf("region=%s default=%d grants=%v expiry=%d levels=%d",
			raw, reg.DefaultLevel(), reg.Grants(), reg.Expiry().UnixNano(), reg.Levels())
	}
	return out
}

// requireSame fails on the first differing entry.
func requireSame(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	for id, w := range want {
		if g := got[id]; g != w {
			t.Fatalf("%s: id %s diverged:\n leader   %s\n follower %s", label, id, w, g)
		}
	}
}

// TestReplicationConformance is the replication arm of the conformance
// harness: a randomized mutation log (registers with and without TTLs,
// trust updates, deregistrations, touch renewals, expiry sweeps) applied
// on the leader must yield byte-identical visible state on a follower —
// including across a mid-stream follower restart.
func TestReplicationConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	leader := newLeader(t, filepath.Join(t.TempDir(), "leader"),
		anonymizer.WithGCInterval(0))
	followerDir := filepath.Join(t.TempDir(), "follower")

	f, err := Start(Config{
		LeaderAddr:   leader.addr,
		DataDir:      followerDir,
		Advertise:    "follower-1",
		PollInterval: 2 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = f.Close()
		}
	}()

	var ids []string
	requesters := []string{"alice", "bob", "carol"}
	mutate := func(ops int) {
		for i := 0; i < ops; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				reg := fakeReg(t, 1+rng.Intn(3))
				switch rng.Intn(3) {
				case 0:
					reg.SetExpiry(time.Now().Add(30 * time.Millisecond)) // will lapse
				case 1:
					reg.SetExpiry(time.Now().Add(time.Hour)) // stays live
				}
				id, err := leader.store.Register(reg)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			case 4, 5:
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				if err := leader.store.SetTrust(id, requesters[rng.Intn(len(requesters))], rng.Intn(2)); err != nil &&
					!errors.Is(err, anonymizer.ErrUnknownRegion) {
					t.Fatal(err)
				}
			case 6:
				if len(ids) == 0 {
					continue
				}
				if err := leader.store.Deregister(ids[rng.Intn(len(ids))]); err != nil &&
					!errors.Is(err, anonymizer.ErrUnknownRegion) {
					t.Fatal(err)
				}
			case 7, 8:
				if len(ids) == 0 {
					continue
				}
				if _, err := leader.store.Touch(ids[rng.Intn(len(ids))], time.Hour); err != nil &&
					!errors.Is(err, anonymizer.ErrUnknownRegion) {
					t.Fatal(err)
				}
			case 9:
				time.Sleep(5 * time.Millisecond)
				if _, err := leader.store.SweepExpired(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// settle lets every short "will lapse" TTL actually lapse, expires
	// it explicitly on the leader, and ships the expire frames before a
	// digest comparison — otherwise a registration can lapse in the gap
	// between digesting the leader and digesting the follower (lazy
	// expiry hides it from Lookup) and read as a divergence.
	settle := func(fl *Follower) {
		time.Sleep(40 * time.Millisecond)
		if _, err := leader.store.SweepExpired(); err != nil {
			t.Fatal(err)
		}
		awaitCatchup(t, leader.store, fl)
	}

	mutate(120)
	awaitCatchup(t, leader.store, f)
	settle(f)
	requireSame(t, "first sync", digest(t, leader.store, ids), digest(t, f.Store(), ids))

	// Mid-stream restart: stop the follower, mutate the leader meanwhile,
	// restart from the same data dir — it must resume from its own
	// recovered watermark, not re-bootstrap, and converge again.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	preRestart := f.Store().Watermark()
	mutate(80)
	f2, err := Start(Config{
		LeaderAddr:   leader.addr,
		DataDir:      followerDir,
		Advertise:    "follower-1",
		PollInterval: 2 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f2.Close() }()
	if got := f2.Store().Recovery(); got.Registrations == 0 && len(ids) > 10 {
		t.Error("restarted follower recovered nothing; did it re-bootstrap?")
	}
	if sum := f2.Store().Watermark().Sum(); sum < preRestart.Sum() {
		t.Fatalf("restart lost stream position: %d < %d", sum, preRestart.Sum())
	}
	awaitCatchup(t, leader.store, f2)
	settle(f2)
	requireSame(t, "after restart", digest(t, leader.store, ids), digest(t, f2.Store(), ids))
	if leader.store.Len() != f2.Store().Len() {
		t.Fatalf("Len: leader %d, follower %d", leader.store.Len(), f2.Store().Len())
	}
}

// TestBootstrapStagesCurrentLayout: a follower bootstrapped from the
// leader's hot backup gets a directory in the layout the store writes
// today — nothing for its first open to convert or truncate.
func TestBootstrapStagesCurrentLayout(t *testing.T) {
	leader := newLeader(t, filepath.Join(t.TempDir(), "leader"))
	const regs = 10
	for i := 0; i < regs; i++ {
		if _, err := leader.store.Register(fakeReg(t, 2)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "follower")
	f, err := Start(Config{LeaderAddr: leader.addr, DataDir: dir, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if rec := f.Store().Recovery(); rec.Registrations != regs || rec.TruncatedBytes != 0 {
		t.Fatalf("bootstrapped follower recovered %d registrations, truncated %d bytes; want %d and 0",
			rec.Registrations, rec.TruncatedBytes, regs)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "META.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), `"version":3`) {
		t.Errorf("bootstrapped META = %s, want layout version 3", meta)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal")); len(stale) != 0 {
		t.Errorf("bootstrap staged per-shard WAL files: %v", stale)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) == 0 {
		t.Error("bootstrap staged no log segment")
	}
}

// TestFollowerServesReadsRedirectsWrites pins the server-layer follower
// behavior: reads answered locally, writes refused with the leader's
// address, and routing clients following the redirect transparently.
func TestFollowerServesReadsRedirectsWrites(t *testing.T) {
	leader := newLeader(t, filepath.Join(t.TempDir(), "leader"))
	f, err := Start(Config{
		LeaderAddr:   leader.addr,
		DataDir:      filepath.Join(t.TempDir(), "follower"),
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	_, followerAddr := startFollowerServer(t, f, leader.engine)

	// Register on the leader; the follower serves the read.
	id, err := leader.store.Register(fakeReg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	awaitCatchup(t, leader.store, f)
	fc, err := anonymizer.Dial(followerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fc.Close() }()
	if _, _, err := fc.GetRegion(id); err != nil {
		t.Fatalf("follower read: %v", err)
	}

	// Writes are refused with the leader address on the plain client...
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}}}
	if _, _, err := fc.Anonymize(42, prof, "RGE"); err == nil ||
		!strings.Contains(err.Error(), "not the leader") {
		t.Fatalf("follower write: %v", err)
	}
	if _, err := fc.Touch(id, time.Hour); err == nil ||
		!strings.Contains(err.Error(), "not the leader") {
		t.Fatalf("follower touch: %v", err)
	}

	// ...and transparently routed by a leader-routing client.
	rc, err := anonymizer.Dial(followerAddr, anonymizer.WithLeaderRouting())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	rid, _, err := rc.Anonymize(42, prof, "RGE")
	if err != nil {
		t.Fatalf("routed write: %v", err)
	}
	if _, err := leader.store.Lookup(rid); err != nil {
		t.Fatalf("routed write did not land on the leader: %v", err)
	}

	// repl_status on both sides.
	lc, err := anonymizer.Dial(leader.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lc.Close() }()
	ls, err := lc.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Role != "leader" || ls.Epoch != 1 {
		t.Fatalf("leader status = %+v", ls)
	}
	fs, err := fc.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Role != "follower" || fs.LeaderAddr != leader.addr || fs.LagFrames == nil {
		t.Fatalf("follower status = %+v", fs)
	}
}

// TestFailoverPromoteAndFencing is the failover acceptance path: kill
// the leader, promote the follower over the wire, verify writes succeed
// on the new leader at a bumped epoch, and verify the stale leader is
// fenced when it tries to rejoin without re-bootstrapping.
func TestFailoverPromoteAndFencing(t *testing.T) {
	leaderDir := filepath.Join(t.TempDir(), "leader")
	leader := newLeader(t, leaderDir)
	f, err := Start(Config{
		LeaderAddr:   leader.addr,
		DataDir:      filepath.Join(t.TempDir(), "follower"),
		Advertise:    "follower-main",
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	_, followerAddr := startFollowerServer(t, f, leader.engine)

	var ids []string
	for i := 0; i < 10; i++ {
		id, err := leader.store.Register(fakeReg(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	awaitCatchup(t, leader.store, f)
	want := digest(t, leader.store, ids)

	// Kill the leader (server and store).
	if err := leader.server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Promote over the wire, as `anonymizer promote -addr` does.
	pc, err := anonymizer.Dial(followerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pc.Close() }()
	epoch, err := pc.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	// The promoted node holds the exact pre-failover state...
	requireSame(t, "post-promote", want, digest(t, f.Store(), ids))
	// ...and accepts writes now.
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}}}
	newID, _, err := pc.Anonymize(42, prof, "RGE")
	if err != nil {
		t.Fatalf("write on promoted leader: %v", err)
	}
	for _, old := range ids {
		if newID == old {
			t.Fatalf("promoted leader re-issued id %s", newID)
		}
	}
	status, err := pc.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if status.Role != "leader" || status.Epoch != 2 {
		t.Fatalf("promoted status = %+v", status)
	}

	// The stale leader reconnects as a would-be follower: fenced, because
	// its data directory claims leadership of epoch 1 < 2. It must
	// re-bootstrap from a fresh backup instead of resuming.
	_, err = Start(Config{
		LeaderAddr:   followerAddr,
		DataDir:      leaderDir,
		PollInterval: 2 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("stale leader rejoin: err = %v, want fenced", err)
	}

	// And a peer presenting a FUTURE epoch tells the node it is stale.
	if _, err := pc.ReplSubscribe(99, false, "x", nil); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("future-epoch subscribe: %v", err)
	}
}
