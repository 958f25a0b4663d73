package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	st, err := anonymizer.OpenDurableStore(dir, opts...)
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
		if leader.Watermark() == f.Store().Watermark() {
			return
		}
		if err := f.Err(); err != nil {
			t.Fatalf("follower failed while catching up: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: leader %d, follower %d",
				leader.Watermark(), f.Store().Watermark())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// oldestHeld returns the position just before the oldest record st still
// holds on disk: the smallest since a delta serves without a stream gap.
func oldestHeld(t *testing.T, st *anonymizer.DurableStore) uint64 {
	t.Helper()
	for from := uint64(0); ; from++ {
		_, _, err := st.WriteIncrementalBackup(io.Discard, from)
		if !errors.Is(err, anonymizer.ErrStreamGap) {
			if err != nil {
				t.Fatalf("WriteIncrementalBackup(%d): %v", from, err)
			}
			return from
		}
	}
}

// requireSameLog fails unless a caught-up follower writes a delta
// byte-identical to the leader's over every LSN both still hold — and
// they hold some. A delta's bytes are its log range's record bytes.
func requireSameLog(t *testing.T, label string, leader, follower *anonymizer.DurableStore) {
	t.Helper()
	from := max(oldestHeld(t, leader), oldestHeld(t, follower))
	var want, got bytes.Buffer
	_, stats, err := leader.WriteIncrementalBackup(&want, from)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := follower.WriteIncrementalBackup(&got, from); err != nil {
		t.Fatal(err)
	}
	if stats.Frames == 0 {
		t.Fatalf("%s: leader and follower hold no LSN in common after %d", label, from)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("%s: logs differ over LSNs (%d, %d]", label, from, leader.Watermark())
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
	if !strings.Contains(string(meta), `"version":4`) {
		t.Errorf("bootstrapped META = %s, want layout version 4", meta)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal")); len(stale) != 0 {
		t.Errorf("bootstrap staged per-shard WAL files: %v", stale)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) == 0 {
		t.Error("bootstrap staged no log segment")
	}
}

// TestFollowerServesReadsRedirectsWrites pins the server-layer follower
// behavior: reads answered locally, writes refused with an error naming
// the leader's address (the response's leader field carries it too).
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

	// Writes are refused, naming the leader to retry against.
	prof := profile.Profile{Levels: []profile.Level{{K: 6, L: 3}}}
	for op, write := range map[string]func() error{
		"anonymize": func() error { _, _, err := fc.Anonymize(42, prof, "RGE"); return err },
		"touch":     func() error { _, err := fc.Touch(id, time.Hour); return err },
	} {
		err := write()
		if err == nil || !strings.Contains(err.Error(), "not the leader") ||
			!strings.Contains(err.Error(), leader.addr) {
			t.Fatalf("follower %s: %v, want a not-the-leader error naming %s", op, err, leader.addr)
		}
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
	if _, err := pc.ReplSubscribe(99, false, "x", 0); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("future-epoch subscribe: %v", err)
	}
}

// TestFarBehindFollowerCatchesUpInOnePoll: a poll ships everything past
// the follower's watermark, however far behind it is — here more records
// than the leader's default snapshot cadence — so a restarted follower
// whose next poll is an hour away must still be caught up by its first.
func TestFarBehindFollowerCatchesUpInOnePoll(t *testing.T) {
	leader := newLeader(t, filepath.Join(t.TempDir(), "leader"))
	dir := filepath.Join(t.TempDir(), "follower")
	f, err := Start(Config{LeaderAddr: leader.addr, DataDir: dir, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const behind = 4500
	for i := 0; i < behind; i++ {
		if _, err := leader.store.Register(fakeReg(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	f, err = Start(Config{LeaderAddr: leader.addr, DataDir: dir, PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	awaitCatchup(t, leader.store, f)
	if lag, _ := f.Lag(); lag != 0 {
		t.Fatalf("caught-up follower reports lag %d", lag)
	}
	requireSameLog(t, "one poll", leader.store, f.Store())
}

// TestPollSinceIsTheAck: a follower acks by polling, nothing else. The
// leader's repl_status places a named follower at the since of its last
// poll — and the follower loop's polls drive it to 0.
func TestPollSinceIsTheAck(t *testing.T) {
	leader := newLeader(t, filepath.Join(t.TempDir(), "leader"))
	for i := 0; i < 10; i++ {
		if _, err := leader.store.Register(fakeReg(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := anonymizer.Dial(leader.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	behind := func(follower string) int64 {
		t.Helper()
		status, err := c.ReplStatus()
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range status.Followers {
			if fs.Addr == follower {
				return fs.Behind
			}
		}
		t.Fatalf("leader lists no follower %q: %+v", follower, status.Followers)
		return 0
	}
	for _, since := range []uint64{3, 10} {
		if _, err := c.BackupSince(io.Discard, since, "poller"); err != nil {
			t.Fatal(err)
		}
		if got, want := behind("poller"), int64(10-since); got != want {
			t.Fatalf("after a poll since %d: behind = %d, want %d", since, got, want)
		}
	}

	f, err := Start(Config{
		LeaderAddr:   leader.addr,
		DataDir:      filepath.Join(t.TempDir(), "follower"),
		Advertise:    "follower-1",
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	for i := 0; i < 20; i++ {
		if _, err := leader.store.Register(fakeReg(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for behind("follower-1") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the leader never saw follower-1 catch up: behind %d", behind("follower-1"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCompactedSinceStopsFollower: a follower whose watermark the leader
// has compacted away cannot be served a delta; its loop stops with the
// stream-gap error instead of retrying forever, so the operator
// re-bootstraps it.
func TestCompactedSinceStopsFollower(t *testing.T) {
	leader := newLeader(t, filepath.Join(t.TempDir(), "leader"), anonymizer.WithSnapshotEvery(0))
	dir := filepath.Join(t.TempDir(), "follower")
	f, err := Start(Config{LeaderAddr: leader.addr, DataDir: dir, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := leader.store.Register(fakeReg(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f, err = Start(Config{LeaderAddr: leader.addr, DataDir: dir, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	deadline := time.Now().Add(10 * time.Second)
	for f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("a follower behind the leader's compaction kept polling")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Err(); !strings.Contains(err.Error(), "compacted away") {
		t.Fatalf("follower stopped with %v, want a compacted-away error", err)
	}
}

// TestMixedCodecReplication: one leader port serves JSON lines and binary
// frames at once, so a follower replicates over either codec, and its own
// server answers a client of the other one.
func TestMixedCodecReplication(t *testing.T) {
	for _, tc := range []struct{ link, client anonymizer.Codec }{
		{anonymizer.CodecJSON, anonymizer.CodecBinary},
		{anonymizer.CodecBinary, anonymizer.CodecJSON},
	} {
		t.Run(tc.link.String(), func(t *testing.T) {
			leader := newLeader(t, filepath.Join(t.TempDir(), "leader"))
			f, err := Start(Config{
				LeaderAddr:   leader.addr,
				DataDir:      filepath.Join(t.TempDir(), "follower"),
				Advertise:    "follower-" + tc.link.String(),
				PollInterval: 2 * time.Millisecond,
				Codec:        tc.link,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = f.Close() }()
			_, followerAddr := startFollowerServer(t, f, leader.engine)
			var ids []string
			for i := 0; i < 20; i++ {
				id, err := leader.store.Register(fakeReg(t, 2))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			awaitCatchup(t, leader.store, f)
			requireSame(t, tc.link.String(), digest(t, leader.store, ids), digest(t, f.Store(), ids))
			requireSameLog(t, tc.link.String(), leader.store, f.Store())
			c, err := anonymizer.Dial(followerAddr, anonymizer.WithCodec(tc.client))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			if _, _, err := c.GetRegion(ids[0]); err != nil {
				t.Fatalf("follower read over %s: %v", tc.client, err)
			}
		})
	}
}
