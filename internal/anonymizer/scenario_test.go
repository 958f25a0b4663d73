package anonymizer

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/profile"
)

// The store conformance scenarios: each runs the op stream of
// model_test.go through one transport of the store's state (restore, key
// derivation, delta, wire codec, read cache) and holds the result to the
// reference model. The network follower is follower_scenario_test.go.

// streamOps is the length of one op stream.
func streamOps() int {
	if testing.Short() {
		return 60
	}
	return 150
}

// TestConformanceBackupRestore (restore): a store of stored and derived
// registrations, compacting every two records, restores from a hot
// WriteBackup and a cold BackupDir to the model, and the restored store
// issues no ID the source issued.
func TestConformanceBackupRestore(t *testing.T) {
	for _, seed := range []int64{16, 17, 2017} {
		h := newHarness(t, seed)
		h.kr = testMasterKeyring(t)
		dir := filepath.Join(t.TempDir(), "orig")
		st := openDurable(t, dir, h.opts(WithKeyring(h.kr), WithSnapshotEvery(2))...)
		h.run(storeTarget{st}, streamOps())
		h.sweep(storeTarget{st})
		var hot, cold bytes.Buffer
		_, err := st.WriteBackup(&hot)
		h.must(err)
		h.must(st.Close())
		_, err = BackupDir(&cold, dir)
		h.must(err)
		for name, archive := range map[string][]byte{"hot": hot.Bytes(), "cold": cold.Bytes()} {
			rst := openDurable(t, restore(h, archive), h.opts(WithKeyring(h.kr))...)
			h.requireModel(name+" restore", rst)
			id, err := rst.Register(fakeRegistration(t, 1))
			h.must(err)
			if slices.Contains(h.ids, id) {
				h.fatalf("%s restore reissued %s", name, id)
			}
		}
	}
}

// restore restores archive into a fresh directory.
func restore(h *harness, archive []byte) string {
	dir := filepath.Join(h.t.TempDir(), "restored")
	h.must(RestoreArchive(bytes.NewReader(archive), dir))
	return dir
}

// TestConformanceDerivationEquivalence (stored vs derived twins): one
// stream, half of whose keys are derived, runs on a store that records
// those keys as material and on a twin that records key references. Both
// hold the model op by op, so their outcomes are the same, and they end
// at one watermark; the derived twin's restore refuses to open without
// its keyring and holds the model with it; and its directory is strictly
// smaller.
func TestConformanceDerivationEquivalence(t *testing.T) {
	kr := testMasterKeyring(t)
	for _, seed := range []int64{22, 23, 4023} {
		var watermarks, sizes [2]int64
		for i, material := range []bool{true, false} {
			h := newHarness(t, seed)
			h.kr, h.material = kr, material
			dir := filepath.Join(t.TempDir(), "twin")
			st := openDurable(t, dir, h.opts(WithKeyring(kr), WithSnapshotEvery(2))...)
			h.run(storeTarget{st}, streamOps())
			h.sweep(storeTarget{st})
			h.requireModel("twin", st)
			watermarks[i] = int64(st.Watermark())
			if !material {
				var archive bytes.Buffer
				_, err := st.WriteBackup(&archive)
				h.must(err)
				restored := restore(h, archive.Bytes())
				if rst, err := OpenDurableStore(restored, h.opts()...); err == nil {
					_ = rst.Close()
					h.fatalf("restored derived twin opened without a keyring")
				}
				h.requireModel("derived restore", openDurable(t, restored, h.opts(WithKeyring(kr))...))
			}
			h.must(st.Close())
			sizes[i] = dirBytes(t, dir)
		}
		if watermarks[0] != watermarks[1] || sizes[1] >= sizes[0] {
			t.Fatalf("seed %d: twins at watermarks %v hold %v durable bytes: want one watermark, the derived twin smaller",
				seed, watermarks, sizes)
		}
	}
}

// dirBytes sums the sizes of the files in a store's directory.
func dirBytes(t *testing.T, dir string) (n int64) {
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		info, ierr := e.Info()
		if err = errors.Join(err, ierr); ierr == nil {
			n += info.Size()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// requireSameLog fails unless two caught-up stores write byte-identical
// deltas over every LSN both still hold on disk.
func requireSameLog(t *testing.T, label string, a, b *DurableStore) {
	t.Helper()
	from := max(a.log.segs[0].base, b.log.segs[0].base) - 1
	if !bytes.Equal(delta(t, a, from), delta(t, b, from)) {
		t.Fatalf("%s: logs differ over LSNs (%d, %d]", label, from, a.Watermark())
	}
}

// TestConformanceRestoredFollower (delta): followers seeded from a hot
// and a cold archive open at the archive's watermark with nothing
// truncated, and catch up through ApplyDelta to the model and the
// leader's exact log, across a leader restart too. A leader that compacts
// or restarts with a lease elapsed and unswept removes it only by the
// expire its sweep journals, so its followers, whose own sweeps expire
// nothing, forget it too.
func TestConformanceRestoredFollower(t *testing.T) {
	for _, seed := range []int64{22, 23} {
		h := newHarness(t, seed)
		dir := filepath.Join(t.TempDir(), "leader")
		// The leader compacts only when WriteBackup makes it: compacting
		// records a follower has not fetched yet is a stream gap (the
		// follower needs a new full backup), which is not the property
		// here.
		leader := openDurable(t, dir, h.opts(WithSnapshotEvery(0))...)
		follow := func(archive []byte) *DurableStore {
			f := openDurable(t, restore(h, archive), h.opts(WithReplica())...)
			wm, err := ArchiveWatermark(bytes.NewReader(archive))
			h.must(err)
			if f.Watermark() != wm || f.Recovery().TruncatedBytes != 0 {
				h.fatalf("follower opens at %d with %d bytes truncated, archive ends at %d",
					f.Watermark(), f.Recovery().TruncatedBytes, wm)
			}
			return f
		}
		converge := func(followers ...*DurableStore) {
			h.sweep(storeTarget{leader})
			h.requireModel("leader", leader)
			for i, f := range followers {
				ship(t, leader, f)
				if lw, fw := leader.Watermark(), f.Watermark(); lw != fw {
					h.fatalf("follower %d at watermark %d, leader at %d", i, fw, lw)
				}
				requireSameLog(t, fmt.Sprintf("seed %d, follower %d", seed, i), leader, f)
				_, err := f.SweepExpired()
				h.must(err)
				h.requireModel(fmt.Sprint("follower ", i), f)
			}
		}
		// lapse advances the clock just past the earliest running lease.
		lapse := func() {
			now, first := h.m.clk.Now().UnixNano(), int64(0)
			for _, r := range h.m.regs {
				if r.expiresAt > now && (first == 0 || r.expiresAt < first) {
					first = r.expiresAt
				}
			}
			if first == 0 {
				h.fatalf("no running lease to lapse")
			}
			h.m.clk.Advance(time.Duration(first-now) + time.Second)
		}

		h.run(storeTarget{leader}, streamOps()/3)
		var full, cold bytes.Buffer
		_, err := leader.WriteBackup(&full)
		h.must(err)
		hotFollower := follow(full.Bytes())
		wm := hotFollower.Watermark()
		if wm != leader.Watermark() {
			h.fatalf("the hot archive ends at %d, the leader at %d", wm, leader.Watermark())
		}
		h.run(storeTarget{leader}, streamOps()/3)
		converge(hotFollower)

		h.must(leader.Close())
		_, err = BackupDir(&cold, dir)
		h.must(err)
		leader = openDurable(t, dir, h.opts(WithSnapshotEvery(0))...)
		coldFollower := follow(cold.Bytes())
		h.run(storeTarget{leader}, streamOps()/3)
		converge(coldFollower, hotFollower)

		// Snapshot reclaims no record journaled after it began, so the
		// caught-up followers fetch the expires its sweep journals.
		lapse()
		h.must(leader.Snapshot())
		converge(coldFollower, hotFollower)

		lapse()
		h.must(leader.Close())
		leader = openDurable(t, dir, h.opts(WithSnapshotEvery(0))...)
		converge(coldFollower, hotFollower)
	}
}

// TestIncrementalBackupRoundTrip (delta): a full backup plus
// ApplyIncremental of the delta taken against its watermark holds the
// model, the hot and offline deltas of one range are byte-equal, and
// re-applying a delta applies nothing.
func TestIncrementalBackupRoundTrip(t *testing.T) {
	for _, seed := range []int64{22, 23} {
		h := newHarness(t, seed)
		dir := filepath.Join(t.TempDir(), "src")
		// Compacting would drop the records the delta covers.
		st := openDurable(t, dir, h.opts(WithSnapshotEvery(0))...)
		h.run(storeTarget{st}, streamOps()/2)
		var full, hotDelta, offDelta bytes.Buffer
		_, err := st.WriteBackup(&full)
		h.must(err)
		wm, err := ArchiveWatermark(bytes.NewReader(full.Bytes()))
		h.must(err)
		if wm != st.Watermark() {
			h.fatalf("the full archive ends at %d, the store at %d", wm, st.Watermark())
		}
		h.run(storeTarget{st}, streamOps()/2)
		h.sweep(storeTarget{st})

		_, hot, err := st.WriteIncrementalBackup(&hotDelta, wm)
		h.must(err)
		h.must(st.Close())
		_, offline, err := IncrementalBackupDir(&offDelta, dir, wm)
		h.must(err)
		if hot.Frames == 0 || offline.Frames == 0 || !bytes.Equal(hotDelta.Bytes(), offDelta.Bytes()) {
			h.fatalf("the hot (%d frames) and offline (%d frames) deltas of one range differ", hot.Frames, offline.Frames)
		}
		for name, d := range map[string][]byte{"hot": hotDelta.Bytes(), "offline": offDelta.Bytes()} {
			dst := restore(h, full.Bytes())
			for pass := 0; pass < 2; pass++ {
				stats, err := ApplyIncremental(bytes.NewReader(d), dst, h.opts()...)
				if err != nil || (stats.Applied == 0) != (pass == 1) {
					h.fatalf("full+%s delta, apply %d: %v, %+v", name, pass, err, stats)
				}
				rst := openDurable(t, dst, h.opts()...)
				h.requireModel("full+"+name+" delta", rst)
				h.must(rst.Close())
			}
		}
	}
}

// wireTarget runs the stream on one durable server through a client;
// the wire scenario switches between a JSON and a binary one op by op.
type wireTarget struct {
	*Client
	st *DurableStore
}

// register anonymizes an engine draw on the server, which draws the keys
// and region the model then records from the store; fake draws, and
// cloaks the engine cannot cut, register on the store.
func (w wireTarget) register(h *harness, d *draw) (string, *Registration) {
	if d.engine {
		id, _, err := w.AnonymizeTTL(d.user, profile.Profile{Levels: cacheTestProfile().Levels[:d.levels]}, "RGE", d.ttl)
		if err == nil {
			reg, err := w.st.Lookup(id)
			h.must(err)
			return id, reg
		}
		if !strings.Contains(err.Error(), cloak.ErrCloakFailed.Error()) {
			h.fatalf("anonymize: %v", err)
		}
		d.engine = false
	}
	return storeTarget{w.st}.register(h, d)
}

func (w wireTarget) SweepExpired() (int, error) { return w.st.SweepExpired() }

// TestConformanceCrossCodec (wire): one durable server runs the stream
// split between a JSON and a binary client. After every op both codecs
// read, reduce and fetch keys alike, error strings included; the store
// holds the model; and backups through either codec restore to it.
func TestConformanceCrossCodec(t *testing.T) {
	h := newHarness(t, 20260807)
	g, density := testGrid(t)
	st := openDurable(t, filepath.Join(t.TempDir(), "store"), h.opts()...)
	addr := startTestServer(t, newTestServer(t, g, density, WithStore(st)))
	var clients [2]*Client
	for i, codec := range []Codec{CodecJSON, CodecBinary} {
		c, err := Dial(addr, WithCodec(codec))
		h.must(err)
		defer func() { _ = c.Close() }()
		clients[i] = c
	}
	// agree reads id through both codecs: get_region, and a reduce and
	// request_keys by one requester.
	agree := func(id string) {
		requester, toLevel := requesters[h.rng.Intn(len(requesters))], h.rng.Intn(4)
		var views [2]string
		for i, c := range clients {
			region, levels, err := c.GetRegion(id)
			reduced, level, rerr := c.Reduce(id, requester, toLevel)
			ks, kerr := c.RequestKeys(id, requester)
			views[i] = fmt.Sprintf("get %s %d %v\n reduce %s %d %v\n keys %x %v",
				h.encode(region), levels, err, h.encode(reduced), level, rerr, ks, kerr)
		}
		if views[0] != views[1] {
			h.fatalf("%s reads differently over JSON:\n %s\nand binary:\n %s", id, views[0], views[1])
		}
	}
	for i := 0; i < streamOps(); i++ {
		h.run(wireTarget{clients[h.rng.Intn(2)], st}, 1)
		agree(h.ids[h.rng.Intn(len(h.ids))])
	}
	for _, id := range append(h.ids, "r999999") {
		agree(id)
	}
	h.sweep(storeTarget{st})
	h.requireModel("server", st)
	for i, c := range clients {
		var archive bytes.Buffer
		_, err := c.Backup(&archive)
		h.must(err)
		h.requireModel(fmt.Sprint("restore of a backup through client ", i), openDurable(t, restore(h, archive.Bytes()), h.opts()...))
	}
}

// TestReduceCacheConformance (cache on/off): over a memory and a durable
// store, a cached and a plain server reduce every level of every
// engine-made region, coarse to fine, twice (so the cached server peels
// from memoized coarser levels, then answers from its cache), and fetch
// every registration's keys. Both answer as the model does, and both
// cache tiers were hit.
func TestReduceCacheConformance(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			h := newHarness(t, 5)
			h.kr = testMasterKeyring(t)
			g, density := testGrid(t)
			st := openDurable(t, mode.dir, h.opts(WithKeyring(h.kr))...)
			cached := newTestServer(t, g, density, WithStore(st), WithReduceCacheBytes(-1))
			plain := newTestServer(t, g, density, WithStore(st))
			h.run(storeTarget{st}, streamOps())
			h.sweep(storeTarget{st})
			for id := range h.m.regs {
				h.expect("set_trust "+id, st.SetTrust(id, "reader", 0), h.m.setTrust(id, "reader", 0))
			}
			// answer renders a response as the model's answers render.
			answer := func(resp *Response) string {
				switch {
				case !resp.OK:
					return errClass(errors.New(resp.Error))
				case resp.Level != nil:
					return fmt.Sprintf("level %d %s", *resp.Level, h.encode(resp.Region))
				}
				return fmt.Sprint(resp.Keys)
			}
			for pass := 0; pass < 2; pass++ {
				for _, id := range h.ids {
					r, err := h.m.live(id)
					// reader holds level 0 of every live registration:
					// every key, and every level's reduction.
					wantKeys := errClass(err)
					if err == nil {
						keys := map[int]string{}
						for lv := range r.keys {
							keys[lv+1] = r.keys[lv]
						}
						wantKeys = fmt.Sprint(keys)
					}
					for _, s := range []*Server{plain, cached} {
						for lv := 3; err == nil && r.reductions != nil && lv >= 0; lv-- {
							want := fmt.Sprintf("level %d %s", min(lv, len(r.keys)), r.reductions[min(lv, len(r.keys))])
							req := &Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: lv}
							if got := answer(s.handleReduce(req)); got != want {
								h.fatalf("pass %d: reduce(%s, %d) = %s, model %s", pass, id, lv, got, want)
							}
						}
						req := &Request{Op: OpRequestKeys, RegionID: id, Requester: "reader"}
						if got := answer(s.handleRequestKeys(req)); got != wantKeys {
							h.fatalf("pass %d: request_keys(%s) = %s, model %s", pass, id, got, wantKeys)
						}
					}
				}
			}
			if cs, ok := cached.ReduceCacheStats(); !ok || cs.RegionHits == 0 || cs.KeyHits == 0 {
				h.fatalf("the cached server ran past its cache: %+v", cs)
			}
			if _, ok := plain.ReduceCacheStats(); ok {
				t.Fatal("the plain server reports a cache")
			}
		})
	}
}
