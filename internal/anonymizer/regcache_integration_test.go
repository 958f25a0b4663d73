package anonymizer

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// This file pins the read-path cache (WithReduceCacheBytes) against the
// two ways memoization can go wrong: serving stale results after an ID
// dies (deregister, TTL expiry, follower ingest of either) and serving
// results that differ from the uncached peel. The stress tests run under
// -race in CI.

// cacheTestProfile is a three-level profile so the incremental-peel path
// (miss at level t served from a cached level m > t) has room to act.
func cacheTestProfile() profile.Profile {
	return profile.Profile{Levels: []profile.Level{
		{K: 4, L: 2},
		{K: 8, L: 4},
		{K: 14, L: 7},
	}}
}

// registerReducible cuts one engine-made region for user and registers it
// on st with stored keys and reader trust at level 0 (the full peel).
// Returns ok=false when the cloak is infeasible for that user.
func registerReducible(
	t *testing.T,
	st *DurableStore,
	engine *cloak.Engine,
	user roadnet.SegmentID,
	prof profile.Profile,
	expiry time.Time,
) (string, bool) {
	t.Helper()
	ks, err := keys.AutoGenerate(len(prof.Levels))
	if err != nil {
		t.Fatal(err)
	}
	region, _, err := engine.Anonymize(cloak.Request{
		UserSegment: user, Profile: prof, Keys: ks.All(),
	})
	if err != nil {
		return "", false
	}
	policy, err := accessctl.NewPolicy(len(prof.Levels), len(prof.Levels))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistration(region, ks, policy)
	if !expiry.IsZero() {
		reg.SetExpiry(expiry)
	}
	id, err := st.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrust(id, "reader", 0); err != nil {
		t.Fatal(err)
	}
	return id, true
}

// reduciblePool registers n engine-made regions, scanning user segments
// until enough cloaks are feasible.
func reduciblePool(t *testing.T, st *DurableStore, engine *cloak.Engine, g *roadnet.Graph, n int, prof profile.Profile) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for u := 0; u < g.NumSegments() && len(ids) < n; u++ {
		if id, ok := registerReducible(t, st, engine, roadnet.SegmentID(u), prof, time.Time{}); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("only %d/%d feasible cloaks on the test grid", len(ids), n)
	}
	return ids
}

// TestReduceCacheConformance runs a cache-enabled and a cache-free server
// over ONE shared store (reduce is read-only), in both store modes, and requires byte-identical
// reduce output for every id at every level. Levels are requested
// coarse-to-fine so the cached server's second request peels from a
// memoized coarser region (the incremental fast path) rather than from
// the published one; the second pass re-reads everything as pure cache
// hits. A derived-keys registration rides along so the key-set tier is
// held to the same standard through request_keys.
func TestReduceCacheConformance(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			g, density := testGrid(t)
			st := openDurable(t, mode.dir, WithDurableShards(4))
			cached := newTestServer(t, g, density, WithStore(st), WithReduceCacheBytes(-1))
			plain := newTestServer(t, g, density, WithStore(st))
			eng := cached.engines[cloak.RGE]

			prof := cacheTestProfile()
			levels := len(prof.Levels)
			ids := reduciblePool(t, st, eng, g, 6, prof)

			// One derived-keys registration: its reduces exercise GetKeys/PutKeys.
			kr, err := keys.NewKeyring(1, map[uint32][]byte{
				1: []byte("regcache-conformance-master-secret-01"),
			})
			if err != nil {
				t.Fatal(err)
			}
			const derivedID = "conf-cache-derived"
			dks, err := kr.DeriveSet(1, derivedID, levels)
			if err != nil {
				t.Fatal(err)
			}
			var dregion *cloak.CloakedRegion
			for u := 0; u < g.NumSegments() && dregion == nil; u++ {
				dregion, _, _ = eng.Anonymize(cloak.Request{
					UserSegment: roadnet.SegmentID(u), Profile: prof, Keys: dks.All(),
				})
			}
			if dregion == nil {
				t.Fatal("no feasible cloak for the derived registration")
			}
			dpolicy, err := accessctl.NewPolicy(levels, levels)
			if err != nil {
				t.Fatal(err)
			}
			if id, err := st.Register(NewDerivedRegistration(dregion, kr, 1, derivedID, levels, dpolicy)); err != nil || id != derivedID {
				t.Fatalf("derived register = (%q, %v)", id, err)
			}
			if err := st.SetTrust(derivedID, "reader", 0); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, derivedID)

			reduce := func(s *Server, id string, lv int) (string, string) {
				resp := s.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: lv})
				if !resp.OK {
					return "", resp.Error
				}
				raw, err := json.Marshal(resp.Region)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("level=%d %s", *resp.Level, raw), ""
			}
			for pass := 0; pass < 2; pass++ {
				for _, id := range ids {
					for lv := levels; lv >= 0; lv-- { // levels = the no-peel case
						want, werr := reduce(plain, id, lv)
						got, gerr := reduce(cached, id, lv)
						if werr != gerr {
							t.Fatalf("pass %d: reduce(%q, %d) errors diverged: plain %q, cached %q",
								pass, id, lv, werr, gerr)
						}
						if want != got {
							t.Fatalf("pass %d: reduce(%q, %d) diverged:\n plain  %s\n cached %s",
								pass, id, lv, want, got)
						}
					}
				}
				wantKeys := plain.handleRequestKeys(&Request{Op: OpRequestKeys, RegionID: derivedID, Requester: "reader"})
				gotKeys := cached.handleRequestKeys(&Request{Op: OpRequestKeys, RegionID: derivedID, Requester: "reader"})
				if !wantKeys.OK || !gotKeys.OK || !reflect.DeepEqual(wantKeys.Keys, gotKeys.Keys) {
					t.Fatalf("pass %d: request_keys diverged: plain (%v, %v), cached (%v, %v)",
						pass, wantKeys.OK, wantKeys.Keys, gotKeys.OK, gotKeys.Keys)
				}
			}
			cs, ok := cached.ReduceCacheStats()
			if !ok {
				t.Fatal("cached server reports no cache")
			}
			if cs.RegionHits == 0 || cs.KeyHits == 0 {
				t.Fatalf("conformance ran past the cache: %+v", cs)
			}
			if _, ok := plain.ReduceCacheStats(); ok {
				t.Fatal("cache-free server reports a cache")
			}
		})
	}
}

// TestReduceCacheDeregisterStaleness hammers cached reduces from eight
// goroutines while the main goroutine deregisters the pool one ID at a
// time. The invariant under test: once Deregister has returned, no later
// reduce may serve that ID from the cache — regardless of how the
// invalidation interleaves with in-flight computations. Run with -race.
func TestReduceCacheDeregisterStaleness(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			g, density := testGrid(t)
			st := openDurable(t, mode.dir, WithDurableShards(4))
			srv := newTestServer(t, g, density, WithStore(st), WithReduceCacheBytes(-1))
			prof := cacheTestProfile()
			ids := reduciblePool(t, st, srv.engines[cloak.RGE], g, 12, prof)

			// Warm every (id, level) so the deregisters race against a hot cache.
			for _, id := range ids {
				for lv := 0; lv < len(prof.Levels); lv++ {
					if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: lv}); !resp.OK {
						t.Fatalf("warm reduce(%q, %d): %s", id, lv, resp.Error)
					}
				}
			}

			dead := make([]atomic.Bool, len(ids))
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)*7919 + 13))
					for !stop.Load() {
						i := rng.Intn(len(ids))
						wasDead := dead[i].Load() // sampled BEFORE the reduce
						resp := srv.handleReduce(&Request{
							Op: OpReduce, RegionID: ids[i],
							Requester: "reader", ToLevel: rng.Intn(len(prof.Levels)),
						})
						if wasDead && resp.OK {
							t.Errorf("reduce(%q) served a region after Deregister returned", ids[i])
							return
						}
					}
				}(w)
			}
			for i, id := range ids {
				time.Sleep(time.Millisecond) // let readers interleave
				if err := st.Deregister(id); err != nil {
					t.Fatal(err)
				}
				dead[i].Store(true)
			}
			time.Sleep(5 * time.Millisecond)
			stop.Store(true)
			wg.Wait()

			for _, id := range ids {
				if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: 0}); resp.OK {
					t.Fatalf("reduce(%q) still OK after deregistration", id)
				} else if !strings.Contains(resp.Error, "unknown region") {
					t.Fatalf("reduce(%q) = %q, want unknown region", id, resp.Error)
				}
			}
			if cs, _ := srv.ReduceCacheStats(); cs.Entries != 0 || cs.Bytes != 0 {
				t.Fatalf("cache retains entries for dead IDs: %+v", cs)
			}
		})
	}
}

// TestReduceCacheExpiryStaleness pins TTL death against a warm cache on a
// fake clock: once the registration's expiry passes, reduce must fail
// even though the cache still holds the memoized region (the store's
// lazy-expiry Lookup gates every request), and a sweep must leave the
// cache empty via the same invalidation hook the deregister path uses.
func TestReduceCacheExpiryStaleness(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			clk := newFakeClock()
			g, density := testGrid(t)
			st := openDurable(t, mode.dir, WithDurableShards(4), WithGCInterval(0), WithClock(clk.Now))
			srv := newTestServer(t, g, density, WithStore(st), WithReduceCacheBytes(-1))
			id, ok := registerReducible(t, st, srv.engines[cloak.RGE], 7, cacheTestProfile(),
				clk.Now().Add(10*time.Second))
			if !ok {
				t.Fatal("no feasible cloak for segment 7")
			}
			if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: 0}); !resp.OK {
				t.Fatalf("warm reduce: %s", resp.Error)
			}
			if cs, _ := srv.ReduceCacheStats(); cs.Entries == 0 {
				t.Fatal("warm reduce did not populate the cache")
			}

			clk.Advance(time.Minute)
			if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: 0}); resp.OK {
				t.Fatal("reduce served a cached region for an expired registration")
			}
			if _, err := st.SweepExpired(); err != nil {
				t.Fatal(err)
			}
			if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: 0}); resp.OK {
				t.Fatal("reduce served a cached region after the sweep")
			}
			if cs, _ := srv.ReduceCacheStats(); cs.Entries != 0 {
				t.Fatalf("cache retains entries for the expired ID: %+v", cs)
			}
		})
	}
}

// TestReduceCacheFollowerIngestStaleness pins the replication path: a
// cache-enabled server reading a follower store must drop its memoized
// reductions when a deregister arrives via IngestFrame — the same
// regTable.apply hook the leader uses, exercised through the stream
// pipeline rather than a local mutation call.
func TestReduceCacheFollowerIngestStaleness(t *testing.T) {
	leader := openDurable(t, t.TempDir(), WithDurableShards(2))
	follower := openDurable(t, t.TempDir(), WithDurableShards(2), WithReplica())
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, WithStore(follower), WithReduceCacheBytes(-1))
	prof := cacheTestProfile()
	ids := reduciblePool(t, leader, srv.engines[cloak.RGE], g, 3, prof)

	ship := func() {
		t.Helper()
		for i := 0; i < leader.ShardCount(); i++ {
			frames, _, err := leader.TailFrom(i, follower.Watermark()[i], 0)
			if err != nil {
				t.Fatalf("TailFrom(%d): %v", i, err)
			}
			for _, f := range frames {
				if _, err := follower.IngestFrame(f); err != nil {
					t.Fatalf("IngestFrame(%d/%d): %v", f.Shard, f.Seq, err)
				}
			}
		}
	}
	ship()
	for _, id := range ids {
		if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: id, Requester: "reader", ToLevel: 0}); !resp.OK {
			t.Fatalf("follower reduce(%q): %s", id, resp.Error)
		}
	}
	warm, _ := srv.ReduceCacheStats()
	if warm.Entries == 0 {
		t.Fatal("follower reduces did not populate the cache")
	}

	if err := leader.Deregister(ids[0]); err != nil {
		t.Fatal(err)
	}
	ship()
	if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: ids[0], Requester: "reader", ToLevel: 0}); resp.OK {
		t.Fatal("follower served a cached region for an ID deregistered upstream")
	}
	// The survivor is untouched — and still cached: serving it must not
	// recompute (ingest invalidated exactly one ID, not the shard).
	before, _ := srv.ReduceCacheStats()
	if resp := srv.handleReduce(&Request{Op: OpReduce, RegionID: ids[1], Requester: "reader", ToLevel: 0}); !resp.OK {
		t.Fatalf("surviving reduce(%q): %s", ids[1], resp.Error)
	}
	after, _ := srv.ReduceCacheStats()
	if after.RegionHits != before.RegionHits+1 || after.RegionMisses != before.RegionMisses {
		t.Fatalf("surviving ID was not served from cache: before %+v, after %+v", before, after)
	}
	if after.Entries >= warm.Entries {
		t.Fatalf("ingest invalidation did not shrink the cache: warm %d, after %d",
			warm.Entries, after.Entries)
	}
}
