package tenant

import (
	"sync"
	"sync/atomic"
	"time"
)

// bucket is a token bucket: it refills at rate tokens/sec up to burst,
// and take spends cost tokens if available. Rate and burst live in the
// Tenant (reloaded config), not here — the bucket holds only the fill
// state, which is what must survive a config reload.
//
// A mutex (rather than a CAS loop) keeps the arithmetic obviously
// correct under -race; the critical section is a few float ops, dwarfed
// by the JSON decode that precedes every charge.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	primed bool
}

// take refills from the wall clock and spends cost tokens, reporting
// whether the budget allowed it. A rejected take spends nothing.
func (b *bucket) take(rate, burst, cost float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.primed {
		b.tokens = burst
		b.last = now
		b.primed = true
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * rate
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens < cost {
		return false
	}
	b.tokens -= cost
	return true
}

// reset refills the bucket to the (new) burst — called when a reload
// changes a tenant's limits, so the new policy starts from a clean
// slate.
func (b *bucket) reset(rate, burst float64) {
	b.mu.Lock()
	b.tokens = burst
	b.primed = true
	b.last = time.Now()
	b.mu.Unlock()
}

// Usage is one tenant's monotonically increasing counters. All methods
// are safe for concurrent use; the exported surface is a snapshot.
type Usage struct {
	ops       atomic.Int64
	bytes     atomic.Int64
	denied    atomic.Int64
	throttled atomic.Int64
}

// Op records one executed operation.
func (u *Usage) Op() { u.ops.Add(1) }

// Bytes records request bytes read off the wire for this tenant.
func (u *Usage) Bytes(n int64) { u.bytes.Add(n) }

// Denied records one capability rejection.
func (u *Usage) Denied() { u.denied.Add(1) }

// Throttled records one rate-limit rejection.
func (u *Usage) Throttled() { u.throttled.Add(1) }

// UsageStats is a point-in-time copy of a tenant's counters.
type UsageStats struct {
	// Ops counts executed operations.
	Ops int64
	// Bytes counts request bytes attributed to the tenant.
	Bytes int64
	// Denied counts capability rejections; Throttled rate-limit ones.
	Denied    int64
	Throttled int64
}

// Snapshot copies the counters.
func (u *Usage) Snapshot() UsageStats {
	return UsageStats{
		Ops:       u.ops.Load(),
		Bytes:     u.bytes.Load(),
		Denied:    u.denied.Load(),
		Throttled: u.throttled.Load(),
	}
}
