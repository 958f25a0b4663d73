package regcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// testRegion builds a synthetic region with n segments and lv levels;
// the cache never interprets the contents, only their cost.
func testRegion(n, lv int) *cloak.CloakedRegion {
	r := &cloak.CloakedRegion{}
	for i := 0; i < n; i++ {
		r.Segments = append(r.Segments, roadnet.SegmentID(i))
	}
	for i := 0; i < lv; i++ {
		r.Levels = append(r.Levels, cloak.LevelMeta{Steps: i + 1})
	}
	return r
}

func testKeys(t *testing.T, levels int) *keys.Set {
	t.Helper()
	ks, err := keys.AutoGenerate(levels)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestRegionHitMissAndLRUOrder(t *testing.T) {
	c := New(Config{Shards: 1}) // unbounded
	if _, ok := c.GetRegion("r1", 0); ok {
		t.Fatal("hit on empty cache")
	}
	r0 := testRegion(8, 1)
	c.PutRegion("r1", 0, r0)
	got, ok := c.GetRegion("r1", 0)
	if !ok || got != r0 {
		t.Fatalf("GetRegion = %v, %v; want the cached pointer", got, ok)
	}
	if _, ok := c.GetRegion("r1", 1); ok {
		t.Fatal("hit at a level that was never cached")
	}
	st := c.Stats()
	if st.RegionHits != 1 {
		t.Fatalf("RegionHits = %d, want 1", st.RegionHits)
	}
	if st.Entries != 1 || st.Bytes != RegionCost(r0) {
		t.Fatalf("Entries/Bytes = %d/%d, want 1/%d", st.Entries, st.Bytes, RegionCost(r0))
	}
}

func TestEvictionIsCostBoundedLRU(t *testing.T) {
	r := testRegion(8, 1)
	cost := RegionCost(r)
	c := New(Config{Shards: 1, MaxBytes: 3 * cost})
	for i := 0; i < 3; i++ {
		c.PutRegion(fmt.Sprintf("r%d", i), 0, testRegion(8, 1))
	}
	// Touch r0 so r1 is the cold end, then overflow by one.
	if _, ok := c.GetRegion("r0", 0); !ok {
		t.Fatal("r0 should be cached")
	}
	c.PutRegion("r3", 0, testRegion(8, 1))
	if _, ok := c.GetRegion("r1", 0); ok {
		t.Fatal("r1 (LRU) should have been evicted")
	}
	for _, id := range []string{"r0", "r2", "r3"} {
		if _, ok := c.GetRegion(id, 0); !ok {
			t.Fatalf("%s should have survived", id)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 3*cost {
		t.Fatalf("Bytes = %d, budget %d", st.Bytes, 3*cost)
	}
}

func TestOversizedEntryIsNotCached(t *testing.T) {
	small := testRegion(4, 1)
	c := New(Config{Shards: 1, MaxBytes: RegionCost(small) + 1})
	c.PutRegion("small", 0, small)
	c.PutRegion("big", 0, testRegion(4096, 1))
	if _, ok := c.GetRegion("big", 0); ok {
		t.Fatal("an entry larger than the budget must not be cached")
	}
	if _, ok := c.GetRegion("small", 0); !ok {
		t.Fatal("the oversized insert must not have evicted the rest")
	}
}

func TestNearestRegion(t *testing.T) {
	c := New(Config{Shards: 1})
	c.PutRegion("r1", 4, testRegion(8, 4))
	c.PutRegion("r1", 2, testRegion(6, 2))
	_, lv, ok := c.NearestRegion("r1", 1)
	if !ok || lv != 2 {
		t.Fatalf("NearestRegion(floor=1) = level %d, %v; want 2", lv, ok)
	}
	_, lv, ok = c.NearestRegion("r1", 3)
	if !ok || lv != 4 {
		t.Fatalf("NearestRegion(floor=3) = level %d, %v; want 4", lv, ok)
	}
	if _, _, ok := c.NearestRegion("r1", 5); ok {
		t.Fatal("no cached level >= 5")
	}
	if _, _, ok := c.NearestRegion("r2", 0); ok {
		t.Fatal("unknown id")
	}
}

func TestInvalidateDropsEverythingForOneID(t *testing.T) {
	c := New(Config{Shards: 1})
	c.PutRegion("r1", 0, testRegion(8, 1))
	c.PutRegion("r1", 1, testRegion(8, 2))
	c.PutKeys("r1", 1, 3, 7, testKeys(t, 3))
	c.PutRegion("r2", 0, testRegion(8, 1))
	c.Invalidate("r1")
	if _, ok := c.GetRegion("r1", 0); ok {
		t.Fatal("r1 level 0 survived Invalidate")
	}
	if _, ok := c.GetRegion("r1", 1); ok {
		t.Fatal("r1 level 1 survived Invalidate")
	}
	if _, ok := c.GetKeys("r1", 1, 3, 7); ok {
		t.Fatal("r1 key set survived Invalidate")
	}
	if _, ok := c.GetRegion("r2", 0); !ok {
		t.Fatal("Invalidate(r1) must not touch r2")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestKeyGenerationFencesReloads(t *testing.T) {
	c := New(Config{Shards: 1})
	ks := testKeys(t, 3)
	c.PutKeys("r1", 1, 3, 1, ks)
	if got, ok := c.GetKeys("r1", 1, 3, 1); !ok || got != ks {
		t.Fatal("same-generation lookup should hit")
	}
	if _, ok := c.GetKeys("r1", 1, 3, 2); ok {
		t.Fatal("a newer keyring generation must miss")
	}
	// The stale entry was dropped on the mismatched read.
	if c.Len() != 0 {
		t.Fatalf("stale key set still cached: Len = %d", c.Len())
	}
}

func TestDoRegionSingleflightCollapsesConcurrentMisses(t *testing.T) {
	c := New(Config{Shards: 1})
	const callers = 16
	var computes atomic.Int64
	release := make(chan struct{})
	region := testRegion(8, 1)
	var wg sync.WaitGroup
	results := make([]*cloak.CloakedRegion, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.DoRegion("r1", 0, func() (*cloak.CloakedRegion, error) {
				computes.Add(1)
				<-release
				return region, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	// Wait until the leader is inside compute and every other caller has
	// joined its flight (a waiter is counted before it blocks), then
	// release everyone. Releasing on the leader alone lets a late caller
	// arrive after the result is cached and count as a hit, not a wait.
	for computes.Load() == 0 || c.Stats().SingleflightWaits < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if r != region {
			t.Fatalf("caller %d got %v, want the shared result", i, r)
		}
	}
	st := c.Stats()
	if st.SingleflightWaits != callers-1 {
		t.Fatalf("SingleflightWaits = %d, want %d", st.SingleflightWaits, callers-1)
	}
	if st.RegionMisses != 1 {
		t.Fatalf("RegionMisses = %d, want 1", st.RegionMisses)
	}
	// The result is now cached.
	if _, ok := c.GetRegion("r1", 0); !ok {
		t.Fatal("DoRegion result was not cached")
	}
}

func TestDoRegionErrorIsNotCached(t *testing.T) {
	c := New(Config{Shards: 1})
	boom := errors.New("boom")
	if _, err := c.DoRegion("r1", 0, func() (*cloak.CloakedRegion, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	// The flight is gone: a retry recomputes.
	r := testRegion(4, 1)
	got, err := c.DoRegion("r1", 0, func() (*cloak.CloakedRegion, error) { return r, nil })
	if err != nil || got != r {
		t.Fatalf("retry = %v, %v", got, err)
	}
}

func TestInvalidateDuringFlightDropsResult(t *testing.T) {
	c := New(Config{Shards: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.DoRegion("r1", 0, func() (*cloak.CloakedRegion, error) {
			close(entered)
			<-release
			return testRegion(8, 1), nil
		})
	}()
	<-entered
	c.Invalidate("r1") // the registration died mid-computation
	close(release)
	<-done
	if _, ok := c.GetRegion("r1", 0); ok {
		t.Fatal("a result computed before the invalidation must not be cached after it")
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(Config{MaxBytes: 4096, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("r%d", i%17)
				switch i % 5 {
				case 0:
					c.PutRegion(id, i%3, testRegion(8, 2))
				case 1:
					c.GetRegion(id, i%3)
				case 2:
					_, _ = c.DoRegion(id, i%3, func() (*cloak.CloakedRegion, error) {
						return testRegion(4, 1), nil
					})
				case 3:
					c.NearestRegion(id, 0)
				case 4:
					c.Invalidate(id)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("accounting went negative: %+v", st)
	}
}
