// Package regcache is the server's read-path cache: memoized reductions
// and derived key sets for hot registrations.
//
// ReverseCloak's reduce is a deterministic function of immutable inputs:
// a registration's published region and its per-level keys are fixed at
// registration time (set_trust changes only the policy, never the region
// or the keys), so the reduction of region R to level t is the same bytes
// every time it is computed. That makes the whole read path memoizable
// with a trivially correct invalidation rule — entries die only when the
// registration dies (deregister, expire) or the key material changes
// (keyring reload), never on trust changes.
//
// The cache is sharded by region ID so every entry of one registration
// lives under one lock and Invalidate(id) is a single-shard operation.
// Each shard runs one cost-weighted LRU (cost = approximate region byte
// size) over both tiers:
//
//   - reduced regions, keyed (regID, level);
//   - derived key sets, keyed (regID, epoch, levels, keyring generation) —
//     the generation fences cached material across key-file reloads.
//
// Concurrent misses on the same (regID, level) are collapsed by a
// per-shard singleflight: one caller computes the peel, the rest wait for
// its result, so a thundering herd on a hot region costs one derivation.
package regcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
)

// stripes is the cache's lock-stripe count; each stripe gets an equal
// share of the byte budget.
const stripes = 16

// Config sizes a Cache.
type Config struct {
	// MaxBytes bounds the cache's total cost (approximate bytes of the
	// cached regions and key sets). Zero or negative means unbounded.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of the cache counters, rendered on
// /metrics as the anonymizer_reduce_cache_* series.
type Stats struct {
	// RegionHits / RegionMisses count reduce requests served from /
	// computed into the reduced-region tier. A request that waited on
	// another caller's in-flight computation counts as neither — it is a
	// SingleflightWait.
	RegionHits   int64
	RegionMisses int64
	// KeyHits / KeyMisses count derived key-set resolutions by tier
	// outcome.
	KeyHits   int64
	KeyMisses int64
	// Evictions counts entries dropped by the LRU to stay inside
	// MaxBytes.
	Evictions int64
	// SingleflightWaits counts callers that piggybacked on another
	// caller's in-flight peel instead of computing their own.
	SingleflightWaits int64
	// Bytes and Entries describe the current cache contents.
	Bytes   int64
	Entries int64
}

// keysKey identifies one derived key set inside a registration's entry
// index. The keyring generation is stored on the entry, not the key: a
// reload replaces the cached set in place instead of stranding it.
type keysKey struct {
	epoch  uint32
	levels int
}

// entry is one cached value, either a reduced region or a key set.
type entry struct {
	id     string
	isKeys bool
	level  int     // region entries: the reduction level
	kk     keysKey // key-set entries
	gen    uint64  // key-set entries: keyring generation at derive time
	region *cloak.CloakedRegion
	keyset *keys.Set
	cost   int64
}

// idEntries indexes every cached value of one registration.
type idEntries struct {
	regions map[int]*list.Element
	keysets map[keysKey]*list.Element
}

// flightKey identifies one in-flight reduction.
type flightKey struct {
	id    string
	level int
}

// flight is one in-flight reduction other callers can wait on.
type flight struct {
	done    chan struct{}
	region  *cloak.CloakedRegion
	err     error
	dropped bool // Invalidate raced the computation; do not cache the result
}

// shard is one lock stripe: an LRU list (front = most recent) plus the
// per-registration index over it and the singleflight table.
type shard struct {
	mu      sync.Mutex
	lru     list.List
	ids     map[string]*idEntries
	flights map[flightKey]*flight
	bytes   int64
}

// Cache is a sharded, cost-bounded read-path cache. Safe for concurrent
// use. The zero value is not usable; construct with New.
type Cache struct {
	shards      [stripes]shard
	maxPerShard int64 // <= 0 means unbounded

	regionHits   atomic.Int64
	regionMisses atomic.Int64
	keyHits      atomic.Int64
	keyMisses    atomic.Int64
	evictions    atomic.Int64
	sfWaits      atomic.Int64
	entries      atomic.Int64
	bytes        atomic.Int64
}

// New builds a cache with cfg's budget.
func New(cfg Config) *Cache {
	c := &Cache{}
	if cfg.MaxBytes > 0 {
		c.maxPerShard = cfg.MaxBytes / stripes
		if c.maxPerShard < 1 {
			c.maxPerShard = 1
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.ids = make(map[string]*idEntries)
		sh.flights = make(map[flightKey]*flight)
	}
	return c
}

// shardFor maps a region ID to its stripe by the same inlined FNV-1a the
// store uses, so the lookup stays allocation-free.
func (c *Cache) shardFor(id string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &c.shards[h%stripes]
}

// RegionCost approximates the resident byte size of a cached region:
// segment IDs, per-level metadata and verification tags, plus fixed
// struct overhead. It is the LRU's cost function.
func RegionCost(r *cloak.CloakedRegion) int64 {
	cost := int64(64) + int64(len(r.Segments))*8
	for i := range r.Levels {
		cost += 48
		for _, tag := range r.Levels[i].Tags {
			cost += int64(len(tag)) + 24
		}
	}
	return cost
}

// keySetCost approximates the resident byte size of a derived key set.
func keySetCost(ks *keys.Set) int64 {
	return 64 + int64(ks.Levels())*56
}

// GetRegion returns the cached reduction of id at exactly level. A hit
// refreshes the entry's LRU position; the returned region is shared and
// must be treated as read-only (reductions are immutable once built).
func (c *Cache) GetRegion(id string, level int) (*cloak.CloakedRegion, bool) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	ie, ok := sh.ids[id]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	e, ok := ie.regions[level]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	sh.lru.MoveToFront(e)
	region := e.Value.(*entry).region
	sh.mu.Unlock()
	c.regionHits.Add(1)
	return region, true
}

// NearestRegion returns the cached reduction of id at the finest (lowest)
// cached level >= floor — the starting point for an incremental peel: a
// miss at level t can peel from a cached level m in (t, published)
// instead of from the published region. It does not touch the hit/miss
// counters; the caller is already inside a counted miss.
func (c *Cache) NearestRegion(id string, floor int) (*cloak.CloakedRegion, int, bool) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ie, ok := sh.ids[id]
	if !ok {
		return nil, 0, false
	}
	best := -1
	var bestElem *list.Element
	for lv, e := range ie.regions {
		if lv >= floor && (best < 0 || lv < best) {
			best, bestElem = lv, e
		}
	}
	if bestElem == nil {
		return nil, 0, false
	}
	sh.lru.MoveToFront(bestElem)
	return bestElem.Value.(*entry).region, best, true
}

// PutRegion caches the reduction of id at level, replacing any previous
// entry at that key and trimming the shard back inside its budget.
func (c *Cache) PutRegion(id string, level int, region *cloak.CloakedRegion) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	c.putRegionLocked(sh, id, level, region)
	sh.mu.Unlock()
}

// putRegionLocked inserts one region entry under sh.mu.
func (c *Cache) putRegionLocked(sh *shard, id string, level int, region *cloak.CloakedRegion) {
	cost := RegionCost(region)
	if c.maxPerShard > 0 && cost > c.maxPerShard {
		return // larger than the whole stripe budget; caching it would only thrash
	}
	ie := sh.ids[id]
	if ie == nil {
		ie = &idEntries{regions: make(map[int]*list.Element)}
		sh.ids[id] = ie
	} else if old, ok := ie.regions[level]; ok {
		c.removeLocked(sh, old)
	}
	if ie.regions == nil {
		ie.regions = make(map[int]*list.Element)
	}
	e := sh.lru.PushFront(&entry{id: id, level: level, region: region, cost: cost})
	ie.regions[level] = e
	sh.bytes += cost
	c.bytes.Add(cost)
	c.entries.Add(1)
	c.trimLocked(sh)
}

// DoRegion resolves the reduction of id at level through the cache: an
// exact hit returns immediately; otherwise concurrent callers collapse
// onto one execution of compute, whose result is cached (unless an
// Invalidate raced it) and handed to every waiter.
func (c *Cache) DoRegion(id string, level int, compute func() (*cloak.CloakedRegion, error)) (*cloak.CloakedRegion, error) {
	sh := c.shardFor(id)
	fk := flightKey{id: id, level: level}
	sh.mu.Lock()
	if ie, ok := sh.ids[id]; ok {
		if e, ok := ie.regions[level]; ok {
			sh.lru.MoveToFront(e)
			region := e.Value.(*entry).region
			sh.mu.Unlock()
			c.regionHits.Add(1)
			return region, nil
		}
	}
	if fl, ok := sh.flights[fk]; ok {
		sh.mu.Unlock()
		c.sfWaits.Add(1)
		<-fl.done
		return fl.region, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	sh.flights[fk] = fl
	sh.mu.Unlock()

	c.regionMisses.Add(1)
	region, err := compute()

	sh.mu.Lock()
	delete(sh.flights, fk)
	fl.region, fl.err = region, err
	if err == nil && region != nil && !fl.dropped {
		c.putRegionLocked(sh, id, level, region)
	}
	sh.mu.Unlock()
	close(fl.done)
	return region, err
}

// GetKeys returns the cached derived key set of id at (epoch, levels),
// provided it was derived under the given keyring generation. A stale
// generation (the key file was reloaded since) is a miss and drops the
// entry so rotated-away material does not linger.
func (c *Cache) GetKeys(id string, epoch uint32, levels int, gen uint64) (*keys.Set, bool) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	ie, ok := sh.ids[id]
	if !ok {
		sh.mu.Unlock()
		c.keyMisses.Add(1)
		return nil, false
	}
	e, ok := ie.keysets[keysKey{epoch: epoch, levels: levels}]
	if !ok {
		sh.mu.Unlock()
		c.keyMisses.Add(1)
		return nil, false
	}
	ent := e.Value.(*entry)
	if ent.gen != gen {
		c.removeLocked(sh, e)
		sh.mu.Unlock()
		c.keyMisses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(e)
	ks := ent.keyset
	sh.mu.Unlock()
	c.keyHits.Add(1)
	return ks, true
}

// PutKeys caches a derived key set under the keyring generation it was
// derived with.
func (c *Cache) PutKeys(id string, epoch uint32, levels int, gen uint64, ks *keys.Set) {
	cost := keySetCost(ks)
	if c.maxPerShard > 0 && cost > c.maxPerShard {
		return
	}
	kk := keysKey{epoch: epoch, levels: levels}
	sh := c.shardFor(id)
	sh.mu.Lock()
	ie := sh.ids[id]
	if ie == nil {
		ie = &idEntries{}
		sh.ids[id] = ie
	} else if old, ok := ie.keysets[kk]; ok {
		c.removeLocked(sh, old)
	}
	if ie.keysets == nil {
		ie.keysets = make(map[keysKey]*list.Element)
	}
	e := sh.lru.PushFront(&entry{id: id, isKeys: true, kk: kk, gen: gen, keyset: ks, cost: cost})
	ie.keysets[kk] = e
	sh.bytes += cost
	c.bytes.Add(cost)
	c.entries.Add(1)
	c.trimLocked(sh)
	sh.mu.Unlock()
}

// Invalidate drops every cached value of id — its reductions at every
// level and its derived key sets — and marks any in-flight reductions so
// their results are returned to waiters but not cached. Called from the
// store's shared mutation-apply path on deregister, expire and replayed
// re-register, so every apply route (live writes, follower ingest, the
// GC sweeper, recovery) invalidates identically.
func (c *Cache) Invalidate(id string) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	if ie, ok := sh.ids[id]; ok {
		for _, e := range ie.regions {
			c.removeLocked(sh, e)
		}
		for _, e := range ie.keysets {
			c.removeLocked(sh, e)
		}
	}
	for fk, fl := range sh.flights {
		if fk.id == id {
			fl.dropped = true
		}
	}
	sh.mu.Unlock()
}

// removeLocked unlinks one entry from the LRU, the byte accounting and
// the per-registration index under sh.mu.
func (c *Cache) removeLocked(sh *shard, e *list.Element) {
	ent := sh.lru.Remove(e).(*entry)
	sh.bytes -= ent.cost
	c.bytes.Add(-ent.cost)
	c.entries.Add(-1)
	ie, ok := sh.ids[ent.id]
	if !ok {
		return
	}
	if ent.isKeys {
		delete(ie.keysets, ent.kk)
	} else {
		delete(ie.regions, ent.level)
	}
	if len(ie.regions) == 0 && len(ie.keysets) == 0 {
		delete(sh.ids, ent.id)
	}
}

// trimLocked evicts from the cold end until the shard is inside its
// budget.
func (c *Cache) trimLocked(sh *shard) {
	if c.maxPerShard <= 0 {
		return
	}
	for sh.bytes > c.maxPerShard {
		back := sh.lru.Back()
		if back == nil {
			return
		}
		c.removeLocked(sh, back)
		c.evictions.Add(1)
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		RegionHits:        c.regionHits.Load(),
		RegionMisses:      c.regionMisses.Load(),
		KeyHits:           c.keyHits.Load(),
		KeyMisses:         c.keyMisses.Load(),
		Evictions:         c.evictions.Load(),
		SingleflightWaits: c.sfWaits.Load(),
		Bytes:             c.bytes.Load(),
		Entries:           c.entries.Load(),
	}
}
