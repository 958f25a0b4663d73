package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/regcache"
)

// timed runs f(i) for i in [0,n) and returns each call's duration in
// nanoseconds plus the heap allocations and bytes per call.
func timed(n int, f func(i int)) (ns sample, allocs, bytes float64) {
	ns = make(sample, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f(i)
		ns[i] = float64(time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	return ns, allocs, bytes
}

// microUsers is how many requesters the engine measurements anonymize:
// enough for a mean on the small map, as many as a second and a half buys
// at paper scale (where the canonical draw fixes which users, and so the
// cost).
func microUsers(w *workload) int {
	if w.preset == "atlanta" {
		return 32
	}
	return 400
}

// cloaked is one region the engine measurements produced, kept for the
// layers measured after it.
type cloaked struct {
	region *cloak.CloakedRegion
	keys   *keys.Set
}

// measureCloak times the engine on the workload's own map, densities and
// profile: Anonymize (whole profile and its one- and two-level prefixes),
// Deanonymize to level 0, and both again under RPLE.
func measureCloak(o *outcome, w *workload, wd *world, engines map[cloak.Algorithm]*cloak.Engine, kr *keys.Keyring) ([]cloaked, error) {
	n := microUsers(w)
	users := wd.sampler.drawN(newRand(populationSeed, streamUsers+100), n)
	levels := len(w.profile.Levels)
	epoch := kr.ActiveEpoch()
	keySets := make([]*keys.Set, n)
	for i := range keySets {
		ks, err := kr.DeriveSet(epoch, fmt.Sprintf("m%d", i+1), levels)
		if err != nil {
			return nil, err
		}
		keySets[i] = ks
	}
	anonymize := func(engine *cloak.Engine, depth int, i int) (*cloak.CloakedRegion, *cloak.Trace, error) {
		return engine.Anonymize(cloak.Request{
			UserSegment: users[i],
			Profile:     profile.Profile{Levels: w.profile.Levels[:depth]},
			Keys:        keySets[i].All()[:depth],
		})
	}

	// RGE, whole profile: time, allocations, and what the engine did.
	rge := engines[cloak.RGE]
	out := make([]cloaked, n)
	var steps, retries, tagged, levelCount int
	var failure error
	ns, allocs, bytes := timed(n, func(i int) {
		region, tr, err := anonymize(rge, levels, i)
		if err != nil {
			failure = err
			return
		}
		out[i] = cloaked{region: region, keys: keySets[i]}
		for _, seq := range tr.LevelSeqs {
			steps += len(seq)
		}
		for _, salt := range tr.Salts {
			retries += int(salt)
		}
		for _, meta := range region.Levels {
			levelCount++
			if len(meta.Tags) > 0 {
				tagged++
			}
		}
	})
	if failure != nil {
		return nil, fmt.Errorf("in-process RGE anonymize: %w", failure)
	}
	o.set("cloak.anonymize_us.rge", ns.mean()/1e3, "us")
	o.set("cloak.anonymize_p50_us.rge", ns.median()/1e3, "us")
	o.set(fmt.Sprintf("cloak.anonymize_us.rge.l%d", levels), ns.mean()/1e3, "us")
	o.set("cloak.anonymize_allocs.rge", allocs, "count")
	o.set("cloak.anonymize_bytes.rge", bytes, "B")
	o.set("cloak.steps_per_op", float64(steps)/float64(n), "count")
	o.set("cloak.salt_retries_per_op", float64(retries)/float64(n), "count")
	o.set("cloak.tagged_levels_frac", float64(tagged)/float64(levelCount), "frac")

	// Profile prefixes: cost is super-linear in levels.
	for depth := 1; depth < levels; depth++ {
		ns, _, _ := timed(n, func(i int) {
			if _, _, err := anonymize(rge, depth, i); err != nil {
				failure = err
			}
		})
		if failure != nil {
			return nil, fmt.Errorf("in-process RGE anonymize, %d levels: %w", depth, failure)
		}
		o.set(fmt.Sprintf("cloak.anonymize_us.rge.l%d", depth), ns.mean()/1e3, "us")
	}

	// RGE reversal, all levels.
	ns, allocs, _ = timed(n, func(i int) {
		grant, err := out[i].keys.Grant(0)
		if err == nil {
			var reduced *cloak.CloakedRegion
			reduced, err = rge.Deanonymize(out[i].region, grant, 0)
			if err == nil && (len(reduced.Segments) != 1 || reduced.Segments[0] != users[i]) {
				err = fmt.Errorf("%w: reversal ended on %v, not on segment %d", errWrong, reduced.Segments, users[i])
			}
		}
		if err != nil {
			failure = err
		}
	})
	if failure != nil {
		return nil, fmt.Errorf("in-process RGE deanonymize: %w", failure)
	}
	o.set("cloak.deanonymize_us.rge", ns.mean()/1e3, "us")
	o.set("cloak.deanonymize_us_per_level.rge", ns.mean()/1e3/float64(levels), "us")
	o.set("cloak.deanonymize_allocs.rge", allocs, "count")

	// RPLE: it refuses a small share of requests (its local expansion
	// can run out of retries), so refusals are counted, not fatal.
	rple := engines[cloak.RPLE]
	var rpleRegions []int
	rpleOut := make([]*cloak.CloakedRegion, n)
	ns, _, _ = timed(n, func(i int) {
		region, _, err := anonymize(rple, levels, i)
		if err == nil {
			rpleOut[i] = region
			rpleRegions = append(rpleRegions, i)
		}
	})
	o.set("cloak.anonymize_us.rple", ns.mean()/1e3, "us")
	o.set("cloak.refused_frac.rple", float64(n-len(rpleRegions))/float64(n), "frac")
	ns, _, _ = timed(len(rpleRegions), func(j int) {
		i := rpleRegions[j]
		grant, err := keySets[i].Grant(0)
		if err == nil {
			_, err = rple.Deanonymize(rpleOut[i], grant, 0)
		}
		if err != nil {
			failure = err
		}
	})
	if failure != nil {
		return nil, fmt.Errorf("in-process RPLE deanonymize: %w", failure)
	}
	o.set("cloak.deanonymize_us.rple", ns.mean()/1e3, "us")
	return out, nil
}

// measureKeys times HKDF derivation of one registration's key set.
func measureKeys(o *outcome, w *workload, kr *keys.Keyring) error {
	const n = 20000
	levels := len(w.profile.Levels)
	epoch := kr.ActiveEpoch()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i+1)
	}
	var failure error
	ns, allocs, _ := timed(n, func(i int) {
		if _, err := kr.DeriveSet(epoch, ids[i], levels); err != nil {
			failure = err
		}
	})
	if failure != nil {
		return failure
	}
	o.set("keys.derive_set_us", ns.mean()/1e3, "us")
	o.set("keys.derive_set_allocs", allocs, "count")
	return nil
}

// measureRegcache times the cache's three paths on real regions: an exact
// hit, a miss that inserts (and, the cache being a quarter the size of
// what is offered, evicts), and an invalidation.
func measureRegcache(o *outcome, regions []cloaked) {
	const n = 20000
	ids := make([]string, n)
	var total int64
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i+1)
		total += regcache.RegionCost(regions[i%len(regions)].region)
	}
	region := func(i int) *cloak.CloakedRegion { return regions[i%len(regions)].region }

	c := regcache.New(regcache.Config{})
	for i, id := range ids {
		c.PutRegion(id, 0, region(i))
	}
	ns, _, _ := timed(n, func(i int) { c.GetRegion(ids[i], 0) })
	o.set("regcache.get_hit_ns", ns.mean(), "ns")
	ns, _, _ = timed(n, func(i int) { c.Invalidate(ids[i]) })
	o.set("regcache.invalidate_ns", ns.mean(), "ns")

	c = regcache.New(regcache.Config{MaxBytes: total / 4})
	ns, _, _ = timed(n, func(i int) {
		_, _ = c.DoRegion(ids[i], 0, func() (*cloak.CloakedRegion, error) { return region(i), nil })
	})
	o.set("regcache.do_miss_ns", ns.mean(), "ns")
}

// storeLogRecords is the size of the fixed log the store measurements
// build and recover: registrations, then trust, touch and deregister
// records over them.
const storeRegistrations = 5000

// measureStore times the durable store's operations in-process with
// fsync=never (the journal's own cost, no device), then registration
// alone with fsync=always (device-inclusive, informational).
func measureStore(o *outcome, cfg *runConfig, w *workload, kr *keys.Keyring, sample cloaked) error {
	dir, err := cfg.freshDataDir(w.name + "-store")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	// A settable clock lets the sweep measurement expire registrations
	// without waiting for them.
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	micro := workload{ttl: time.Hour} // no sweeper tick, no automatic snapshots
	st, err := openStore(&micro, kr, dir, "never", anonymizer.WithClock(now), anonymizer.WithSnapshotEvery(0))
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = st.Close()
		}
	}()

	levels := sample.region.PrivacyLevel()
	epoch := kr.ActiveEpoch()
	const n = storeRegistrations
	ids := make([]string, n)
	var failure error
	keep := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	register := func(st *anonymizer.DurableStore) string {
		id := st.AllocateID()
		policy, err := accessctl.NewPolicy(levels, levels)
		keep(err)
		got, err := st.Register(anonymizer.NewDerivedRegistration(sample.region, kr, epoch, id, levels, policy))
		keep(err)
		return got
	}
	ns, allocs, _ := timed(n, func(i int) { ids[i] = register(st) })
	o.set("store.register_us", ns.mean()/1e3, "us")
	o.set("store.register_allocs", allocs, "count")
	ns, _, _ = timed(n, func(i int) { keep(st.SetTrust(ids[i], requester, 0)) })
	o.set("store.set_trust_us", ns.mean()/1e3, "us")
	ns, _, _ = timed(n, func(i int) { _, err := st.Touch(ids[i], time.Hour); keep(err) })
	o.set("store.touch_us", ns.mean()/1e3, "us")
	ns, _, _ = timed(n, func(i int) { _, err := st.Lookup(ids[i]); keep(err) })
	o.set("store.lookup_ns", ns.mean(), "ns")
	ns, _, _ = timed(n/5, func(i int) { keep(st.Deregister(ids[i])) })
	o.set("store.deregister_us", ns.mean()/1e3, "us")
	if failure != nil {
		return fmt.Errorf("in-process store: %w", failure)
	}

	// Recovery: reopen over the log just written (4.2 records per
	// registration), before anything compacts it.
	records := float64(3*n + n/5)
	closed = true
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st, err = openStore(&micro, kr, dir, "never", anonymizer.WithClock(now), anonymizer.WithSnapshotEvery(0))
	if err != nil {
		return fmt.Errorf("in-process store: recovery: %w", err)
	}
	closed = false
	o.set("store.recover_us_per_rec", micros(time.Since(t0))/records, "us")
	if got, want := st.Len(), n-n/5; got != want {
		return fmt.Errorf("in-process store: recovered %d registrations, want %d", got, want)
	}

	t0 = time.Now()
	if err := st.Snapshot(); err != nil {
		return fmt.Errorf("in-process store: snapshot: %w", err)
	}
	o.set("store.snapshot_ms", micros(time.Since(t0))/1e3, "ms")

	// Sweep: let every lease run out, then reclaim them in one pass.
	clock.Add(int64(2 * time.Hour))
	t0 = time.Now()
	expired, err := st.SweepExpired()
	if err != nil {
		return fmt.Errorf("in-process store: sweep: %w", err)
	}
	if expired == 0 {
		return fmt.Errorf("in-process store: sweep reclaimed nothing")
	}
	o.set("store.sweep_us_per_expired", micros(time.Since(t0))/float64(expired), "us")

	// Registration with every record synced before it is acknowledged.
	syncDir := filepath.Join(dir, "sync")
	if err := os.MkdirAll(syncDir, 0o755); err != nil {
		return err
	}
	sync, err := openStore(&micro, kr, syncDir, "always")
	if err != nil {
		return err
	}
	defer func() { _ = sync.Close() }()
	ns, _, _ = timed(300, func(int) { register(sync) })
	if failure != nil {
		return fmt.Errorf("in-process store, fsync=always: %w", failure)
	}
	o.set("store.register_sync_us", ns.mean()/1e3, "us")
	return nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
