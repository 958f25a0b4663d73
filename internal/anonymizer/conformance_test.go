package anonymizer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// This file is the conformance harness pinning the data-dir lifecycle
// toolkit: for any generated mutation log, backup→restore and
// reshard(k→k') must reproduce a store whose full visible state — every
// Lookup, every reduction, every expiry, Len() — is byte-identical to the
// original. The harness drives randomized logs over a fake clock so TTL
// expiry is deterministic, digests both stores field by field, and runs
// under -race in CI.

// regDigest is one registration's complete visible state: the canonical
// region encoding, the per-level keys, the access policy, the expiry
// instant, and — for registrations whose region came from a real engine —
// the byte digest of every reduction level.
type regDigest struct {
	Region     string
	Keys       []string
	Default    int
	Grants     map[string]int
	ExpiresAt  int64
	Reductions []string
}

// digestStore captures the visible state of every ID in ids against st:
// live registrations digest fully, unknown/expired/deregistered IDs map
// to nil so both sides must agree on absence too.
func digestStore(
	t *testing.T,
	st *DurableStore,
	ids []string,
	engine *cloak.Engine,
	engineMade map[string]bool,
) map[string]*regDigest {
	t.Helper()
	out := make(map[string]*regDigest, len(ids))
	for _, id := range ids {
		reg, err := st.Lookup(id)
		if err != nil {
			if !errors.Is(err, ErrUnknownRegion) {
				t.Fatalf("Lookup(%q): %v", id, err)
			}
			out[id] = nil
			continue
		}
		raw, err := json.Marshal(reg.Region())
		if err != nil {
			t.Fatal(err)
		}
		// Resolve keys through the registration (stored material or a fresh
		// derivation) so v2 and v3 stores digest through the same surface.
		ks, err := reg.keys()
		if err != nil {
			t.Fatalf("keys(%q): %v", id, err)
		}
		d := &regDigest{
			Region:    string(raw),
			Keys:      ks.EncodeHex(),
			Default:   reg.policy.DefaultLevel(),
			Grants:    reg.policy.Grants(),
			ExpiresAt: reg.expiresAt,
		}
		if engineMade[id] {
			for lv := 0; lv <= reg.Levels(); lv++ {
				reduced, err := reg.Reduce(engine, lv)
				if err != nil {
					t.Fatalf("Reduce(%q, %d): %v", id, lv, err)
				}
				rraw, err := json.Marshal(reduced)
				if err != nil {
					t.Fatal(err)
				}
				d.Reductions = append(d.Reductions, string(rraw))
			}
		}
		out[id] = d
	}
	return out
}

// requireSameState fails unless both stores expose byte-identical visible
// state over ids and identical Len.
func requireSameState(
	t *testing.T,
	label string,
	want, got map[string]*regDigest,
	wantLen, gotLen int,
) {
	t.Helper()
	if wantLen != gotLen {
		t.Fatalf("%s: Len = %d, want %d", label, gotLen, wantLen)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: id %q missing from digest", label, id)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: id %q state diverged:\n want %+v\n  got %+v", label, id, w, g)
		}
	}
}

// conformanceTrial generates one randomized mutation log over a store
// with k shards, then checks backup→restore and reshard to every count in
// reshardTo against the original's digest.
func conformanceTrial(t *testing.T, seed int64, shards int, reshardTo []int) {
	rng := rand.New(rand.NewSource(seed))
	clk := newFakeClock() // shared by every store in the trial: expiry is deterministic
	g, density := testGrid(t)
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "orig")
	st, err := OpenDurableStore(dir,
		WithDurableShards(shards),
		WithSnapshotEvery(7), // small: compaction interleaves with the log
		WithGCInterval(0),    // sweeps are explicit, so the log is deterministic
		WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()

	engineRegs, fakeRegs := 8, 24
	ops := 60
	if testing.Short() {
		engineRegs, fakeRegs, ops = 4, 10, 24
	}

	var ids []string
	engineMade := make(map[string]bool)
	register := func(reg *Registration) {
		// A third of registrations carry a TTL; half of those are short
		// enough to expire under the clock advances below.
		switch rng.Intn(3) {
		case 0:
			reg.SetExpiry(clk.Now().Add(time.Duration(1+rng.Intn(40)) * time.Second))
		case 1:
			reg.SetExpiry(clk.Now().Add(time.Hour))
		}
		id, err := st.Register(reg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < engineRegs; i++ {
		user := roadnet.SegmentID(10 + rng.Intn(150))
		ks, err := keys.AutoGenerate(2)
		if err != nil {
			t.Fatal(err)
		}
		region, _, err := engine.Anonymize(cloak.Request{
			UserSegment: user, Profile: testProfile(), Keys: ks.All(),
		})
		if err != nil {
			continue // infeasible cloak; the log just gets shorter
		}
		policy, err := accessctl.NewPolicy(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		before := len(ids)
		register(NewRegistration(region, ks, policy))
		if len(ids) > before {
			engineMade[ids[len(ids)-1]] = true
		}
	}
	for i := 0; i < fakeRegs; i++ {
		register(fakeRegistration(t, 1+rng.Intn(3)))
	}

	requesters := []string{"alice", "bob", "carol", "doctor"}
	for i := 0; i < ops; i++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(7) {
		case 0, 1, 2:
			reg, err := st.Lookup(id)
			if err != nil {
				continue // expired or deregistered: nothing to mutate
			}
			lv := rng.Intn(reg.policy.Levels() + 1)
			if err := st.SetTrust(id, requesters[rng.Intn(len(requesters))], lv); err != nil &&
				!errors.Is(err, ErrUnknownRegion) {
				t.Fatal(err)
			}
		case 3:
			if err := st.Deregister(id); err != nil && !errors.Is(err, ErrUnknownRegion) {
				t.Fatal(err)
			}
		case 4:
			clk.Advance(time.Duration(1+rng.Intn(20)) * time.Second)
		case 5:
			if _, err := st.SweepExpired(); err != nil {
				t.Fatal(err)
			}
		case 6:
			// Lease renewal: short enough to lapse under later advances
			// sometimes, long enough to survive them other times.
			ttl := time.Duration(1+rng.Intn(120)) * time.Second
			if _, err := st.Touch(id, ttl); err != nil && !errors.Is(err, ErrUnknownRegion) {
				t.Fatal(err)
			}
		}
	}
	// Reclaim every elapsed TTL so Len is exactly the live count — the
	// recovered stores evaluate expiry at open and never hold a dead entry.
	if _, err := st.SweepExpired(); err != nil {
		t.Fatal(err)
	}

	want := digestStore(t, st, ids, engine, engineMade)
	wantLen := st.Len()

	// Backup → restore must reproduce the state byte-identically.
	var archive bytes.Buffer
	if _, err := st.WriteBackup(&archive); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(archive.Bytes()), restored); err != nil {
		t.Fatal(err)
	}
	rst := openDurable(t, restored, WithClock(clk.Now), WithGCInterval(0))
	requireSameState(t, fmt.Sprintf("restore(k=%d)", shards),
		want, digestStore(t, rst, ids, engine, engineMade), wantLen, rst.Len())

	// The source of the reshards must be quiescent on disk.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range reshardTo {
		dst := filepath.Join(t.TempDir(), fmt.Sprintf("reshard-%d", k))
		stats, err := Reshard(dir, dst, k, WithClock(clk.Now), WithGCInterval(0))
		if err != nil {
			t.Fatalf("Reshard(%d->%d): %v", shards, k, err)
		}
		if stats.TargetShards != k {
			t.Fatalf("Reshard(%d->%d): TargetShards = %d", shards, k, stats.TargetShards)
		}
		mst := openDurable(t, dst, WithClock(clk.Now), WithGCInterval(0))
		requireSameState(t, fmt.Sprintf("reshard(%d->%d)", shards, k),
			want, digestStore(t, mst, ids, engine, engineMade), wantLen, mst.Len())
		// A fresh registration in the migrated store must not collide with
		// any ID the source ever issued.
		id, err := mst.Register(fakeRegistration(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range ids {
			if id == old {
				t.Fatalf("reshard(%d->%d): reissued id %q", shards, k, id)
			}
		}
	}
}

// derivationTrial is the schema-v2/v3 equivalence arm: one randomized
// mutation log is driven, step for step, against a stored-keys store and
// a derived-keys twin whose key material comes from the same HKDF
// derivations. Every visible digest — regions, keys, policies, expiry,
// reductions at every level — and the replication watermarks must match,
// the derived store must journal strictly fewer durable bytes, and the
// derived side must survive backup→restore and reshard across the schema
// boundary (and refuse to open without its keyring).
func derivationTrial(t *testing.T, seed int64, shards int, reshardTo []int) {
	rng := rand.New(rand.NewSource(seed))
	clk := newFakeClock()
	g, density := testGrid(t)
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		t.Fatal(err)
	}
	kr := testMasterKeyring(t)
	epoch := kr.ActiveEpoch()

	derivedDir := filepath.Join(t.TempDir(), "derived")
	storedDir := filepath.Join(t.TempDir(), "stored")
	common := []DurabilityOption{
		WithDurableShards(shards),
		WithSnapshotEvery(7),
		WithGCInterval(0),
		WithClock(clk.Now),
	}
	sst := openDurable(t, storedDir, common...)
	dst, err := OpenDurableStore(derivedDir, append([]DurabilityOption{WithKeyring(kr)}, common...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dst.Close() }()

	var ids []string
	engineMade := make(map[string]bool)
	// register cuts one region keyed by HKDF(epoch, id) and registers it in
	// both stores: as stored material in sst, as a key reference in dst.
	// Allocating the ID up front on both sides keeps their sequences in
	// lockstep (the stored side's Register draws the ID we predicted).
	register := func(levels int, fromEngine bool) {
		id := dst.AllocateID()
		ks, err := kr.DeriveSet(epoch, id, levels)
		if err != nil {
			t.Fatal(err)
		}
		var region *cloak.CloakedRegion
		if fromEngine {
			user := roadnet.SegmentID(10 + rng.Intn(150))
			region, _, err = engine.Anonymize(cloak.Request{
				UserSegment: user, Profile: testProfile(), Keys: ks.All(),
			})
			if err != nil {
				// Infeasible cloak: burn the stored side's ID too so the
				// allocator sequences stay in lockstep.
				sst.AllocateID()
				return
			}
		} else {
			region = fakeRegistration(t, levels).region
		}
		newPolicy := func() *accessctl.Policy {
			p, err := accessctl.NewPolicy(levels, levels)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		sreg := NewRegistration(region, ks, newPolicy())
		dreg := NewDerivedRegistration(region, kr, epoch, id, levels, newPolicy())
		switch rng.Intn(3) {
		case 0:
			exp := clk.Now().Add(time.Duration(1+rng.Intn(40)) * time.Second)
			sreg.SetExpiry(exp)
			dreg.SetExpiry(exp)
		case 1:
			exp := clk.Now().Add(time.Hour)
			sreg.SetExpiry(exp)
			dreg.SetExpiry(exp)
		}
		// The stored twin draws the ID we pre-allocated; the derived one
		// registers under its key reference.
		sid, err := sst.Register(sreg)
		if err != nil {
			t.Fatal(err)
		}
		did, err := dst.Register(dreg)
		if err != nil {
			t.Fatal(err)
		}
		if sid != id || did != id {
			t.Fatalf("registered under (%q, %q), want %q", sid, did, id)
		}
		ids = append(ids, id)
		if fromEngine {
			engineMade[id] = true
		}
	}

	engineRegs, fakeRegs := 8, 24
	ops := 60
	if testing.Short() {
		engineRegs, fakeRegs, ops = 4, 10, 24
	}
	for i := 0; i < engineRegs; i++ {
		register(2, true)
	}
	for i := 0; i < fakeRegs; i++ {
		register(1+rng.Intn(3), false)
	}

	// One randomized op stream, applied to both stores; outcomes must agree.
	both := func(label string, op func(st *DurableStore) error) {
		serr := op(sst)
		derr := op(dst)
		if (serr == nil) != (derr == nil) {
			t.Fatalf("%s diverged: stored err %v, derived err %v", label, serr, derr)
		}
		if serr != nil && !errors.Is(serr, ErrUnknownRegion) {
			t.Fatal(serr)
		}
	}
	requesters := []string{"alice", "bob", "carol", "doctor"}
	for i := 0; i < ops; i++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(7) {
		case 0, 1, 2:
			reg, err := dst.Lookup(id)
			if err != nil {
				continue
			}
			lv := rng.Intn(reg.policy.Levels() + 1)
			req := requesters[rng.Intn(len(requesters))]
			both("SetTrust", func(st *DurableStore) error { return st.SetTrust(id, req, lv) })
		case 3:
			both("Deregister", func(st *DurableStore) error { return st.Deregister(id) })
		case 4:
			clk.Advance(time.Duration(1+rng.Intn(20)) * time.Second)
		case 5:
			both("SweepExpired", func(st *DurableStore) error { _, err := st.SweepExpired(); return err })
		case 6:
			ttl := time.Duration(1+rng.Intn(120)) * time.Second
			both("Touch", func(st *DurableStore) error { _, err := st.Touch(id, ttl); return err })
		}
	}
	both("SweepExpired", func(st *DurableStore) error { _, err := st.SweepExpired(); return err })

	want := digestStore(t, sst, ids, engine, engineMade)
	wantLen := sst.Len()
	requireSameState(t, fmt.Sprintf("derived-vs-stored(k=%d)", shards),
		want, digestStore(t, dst, ids, engine, engineMade), wantLen, dst.Len())
	if sw, dw := sst.Watermark(), dst.Watermark(); !reflect.DeepEqual(sw, dw) {
		t.Fatalf("replication watermarks diverged: stored %v, derived %v", sw, dw)
	}

	// Backup → restore of derived-key records: the archive carries key
	// references, never key material, so the restored dir must digest
	// identically — but only with the keyring at hand.
	var archive bytes.Buffer
	if _, err := dst.WriteBackup(&archive); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(archive.Bytes()), restored); err != nil {
		t.Fatal(err)
	}
	if st, err := OpenDurableStore(restored, WithClock(clk.Now), WithGCInterval(0)); err == nil {
		_ = st.Close()
		t.Fatal("restored derived store opened without a keyring")
	}
	rst := openDurable(t, restored, WithKeyring(kr), WithClock(clk.Now), WithGCInterval(0))
	requireSameState(t, fmt.Sprintf("derived-restore(k=%d)", shards),
		want, digestStore(t, rst, ids, engine, engineMade), wantLen, rst.Len())

	// Quiesce both data dirs and compare durable footprints: the derived
	// store's records carry (epoch, levels) references where the stored
	// store's carry hex key material, so its WAL+snapshots must be smaller.
	if err := sst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if sb, db := dirBytes(t, storedDir), dirBytes(t, derivedDir); db >= sb {
		t.Fatalf("derived store holds %d durable bytes, stored twin %d — key refs should be smaller", db, sb)
	}
	for _, k := range reshardTo {
		out := filepath.Join(t.TempDir(), fmt.Sprintf("reshard-%d", k))
		if _, err := Reshard(derivedDir, out, k,
			WithKeyring(kr), WithClock(clk.Now), WithGCInterval(0)); err != nil {
			t.Fatalf("Reshard(%d->%d): %v", shards, k, err)
		}
		mst := openDurable(t, out, WithKeyring(kr), WithClock(clk.Now), WithGCInterval(0))
		requireSameState(t, fmt.Sprintf("derived-reshard(%d->%d)", shards, k),
			want, digestStore(t, mst, ids, engine, engineMade), wantLen, mst.Len())
	}
}

// dirBytes sums the sizes of every regular file under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// catchUp ships every record the leader holds past the follower's
// watermark through IngestFrame, the way the replication loop does. A
// stream gap — the follower's position not addressable on the leader — is
// fatal: a follower seeded from an archive must be able to continue from
// exactly where the archive ends.
func catchUp(t *testing.T, label string, leader, follower *DurableStore) {
	t.Helper()
	from := follower.Watermark()
	for i := 0; i < leader.ShardCount(); i++ {
		frames, _, err := leader.TailFrom(i, from[i], 0)
		if err != nil {
			t.Fatalf("%s: TailFrom(leader, %d, %d): %v", label, i, from[i], err)
		}
		for _, f := range frames {
			if _, err := follower.IngestFrame(f); err != nil {
				t.Fatalf("%s: IngestFrame(%d/%d): %v", label, f.Shard, f.Seq, err)
			}
		}
	}
	if lw, fw := leader.Watermark(), follower.Watermark(); !reflect.DeepEqual(lw, fw) {
		t.Fatalf("%s: watermarks diverged: leader %v, follower %v", label, lw, fw)
	}
}

// restoredFollowerTrial is the replication arm of the lifecycle harness:
// a follower whose directory was seeded by RestoreArchive must pick up
// the leader's stream at the archive's watermark — per-shard offsets line
// up exactly across the restore — and converge byte-identically. It runs
// twice per trial: from a hot archive (tails empty: WriteBackup compacts
// first) against the still-running leader, and from a cold archive whose
// tails carry every uncompacted record, against the reopened leader.
func restoredFollowerTrial(t *testing.T, seed int64, shards int) {
	rng := rand.New(rand.NewSource(seed))
	clk := newFakeClock()
	dir := filepath.Join(t.TempDir(), "leader")
	// The leader compacts only when WriteBackup makes it: a compaction
	// folding records a follower has not fetched yet is a genuine stream
	// gap (the follower re-bootstraps), which is not the property here.
	opts := []DurabilityOption{
		WithDurableShards(shards), WithSnapshotEvery(0), WithGCInterval(0), WithClock(clk.Now),
	}
	leader, err := OpenDurableStore(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()

	var ids []string
	requesters := []string{"alice", "bob", "carol"}
	mutate := func(ops int) {
		for i := 0; i < ops; i++ {
			if len(ids) < 6 || rng.Intn(3) == 0 {
				reg := fakeRegistration(t, 1+rng.Intn(3))
				if rng.Intn(3) == 0 {
					reg.SetExpiry(clk.Now().Add(time.Duration(1+rng.Intn(60)) * time.Second))
				}
				id, err := leader.Register(reg)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				continue
			}
			id := ids[rng.Intn(len(ids))]
			var err error
			switch rng.Intn(5) {
			case 0, 1:
				err = leader.SetTrust(id, requesters[rng.Intn(len(requesters))], rng.Intn(2))
			case 2:
				err = leader.Deregister(id)
			case 3:
				clk.Advance(time.Duration(1+rng.Intn(15)) * time.Second)
				_, err = leader.SweepExpired()
			case 4:
				_, err = leader.Touch(id, time.Duration(1+rng.Intn(90))*time.Second)
			}
			if err != nil && !errors.Is(err, ErrUnknownRegion) {
				t.Fatal(err)
			}
		}
	}
	// seed restores archive as a follower and checks it starts exactly at
	// the archive's watermark.
	seedFollower := func(label string, archive []byte) *DurableStore {
		wm, err := ArchiveWatermark(bytes.NewReader(archive))
		if err != nil {
			t.Fatal(err)
		}
		fdir := filepath.Join(t.TempDir(), label)
		if err := RestoreArchive(bytes.NewReader(archive), fdir); err != nil {
			t.Fatal(err)
		}
		f := openDurable(t, fdir, WithReplica(), WithGCInterval(0), WithClock(clk.Now))
		if got := f.Recovery().TruncatedBytes; got != 0 {
			t.Fatalf("%s: restored follower truncated %d bytes at open", label, got)
		}
		if !reflect.DeepEqual(f.Watermark(), wm) {
			t.Fatalf("%s: follower opens at %v, archive ends at %v", label, f.Watermark(), wm)
		}
		return f
	}
	converged := func(label string, f *DurableStore) {
		catchUp(t, label, leader, f)
		requireSameState(t, fmt.Sprintf("%s(k=%d)", label, shards),
			digestStore(t, leader, ids, nil, nil), digestStore(t, f, ids, nil, nil),
			leader.Len(), f.Len())
	}

	mutate(40)
	var hot bytes.Buffer
	if _, err := leader.WriteBackup(&hot); err != nil {
		t.Fatal(err)
	}
	hotFollower := seedFollower("hot", hot.Bytes())
	mutate(30)
	converged("hot-follower", hotFollower)

	// Cold archive: stop the leader mid-log, archive the directory as it
	// lies (uncompacted records ride in the tails), bring the leader back.
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	var cold bytes.Buffer
	if _, err := BackupDir(&cold, dir); err != nil {
		t.Fatal(err)
	}
	if leader, err = OpenDurableStore(dir, opts...); err != nil {
		t.Fatal(err)
	}
	coldFollower := seedFollower("cold", cold.Bytes())
	mutate(30)
	converged("cold-follower", coldFollower)
	converged("hot-follower-across-leader-restart", hotFollower)
}

// TestConformanceRestoredFollower runs the restored-follower arm over
// one-shard and multi-shard stores.
func TestConformanceRestoredFollower(t *testing.T) {
	for i, k := range []int{1, 4} {
		k := k
		seed := int64(4000*i + 23)
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			restoredFollowerTrial(t, seed, k)
		})
	}
}

// TestConformanceDerivationEquivalence runs the stored-vs-derived arm
// over the same shard counts as the main conformance test.
func TestConformanceDerivationEquivalence(t *testing.T) {
	counts := []int{1, 4, 16}
	for i, k := range counts {
		k := k
		seed := int64(2000*i + 23)
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			derivationTrial(t, seed, k, counts)
		})
	}
}

// TestConformanceBackupRestoreReshard is the acceptance property test:
// randomized mutation logs over shard counts {1,4,16}, each checked
// through backup→restore and reshard to every count in {1,4,16}.
func TestConformanceBackupRestoreReshard(t *testing.T) {
	counts := []int{1, 4, 16}
	for i, k := range counts {
		k := k
		seed := int64(1000*i + 17)
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			conformanceTrial(t, seed, k, counts)
		})
	}
}
