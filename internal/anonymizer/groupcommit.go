package anonymizer

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// groupCommit coalesces concurrent fsync=always waiters on the store's
// unified log into one fsync per cohort. Appenders journal and apply
// their mutation under their shard lock, release it, and then wait here
// for their record's logical log offset to become durable: the first
// waiter that finds no sync in flight becomes the leader and fsyncs once
// on behalf of everything appended so far — ACROSS EVERY SHARD, which is
// the point of the single-log layout: the per-shard engine ran one such
// cohort per shard and the N fsyncs serialized in the filesystem
// journal, so shard count multiplied the floor latency. While
// the leader's fsync runs, later appenders keep journaling and form the
// next cohort.
//
// Offsets are logical and monotonic — the log only ever grows (reclaim
// drops whole prefix segments without rewinding the append position) —
// so there is no truncation epoch to track, unlike the per-shard
// predecessor of this type.
type groupCommit struct {
	mu   sync.Mutex
	cond *sync.Cond
	// syncing marks a leader's fsync in flight.
	syncing bool
	// synced is the highest logical log offset known durable.
	synced int64
	// queued is the number of waiters currently inside wait — the
	// cohort-size gauge's raw reading.
	queued int
	// err/errSeq report failed sync rounds: every waiter that was already
	// queued when a round failed observes the bumped errSeq and returns
	// the error, because its record may be in the unsynced tail.
	err    error
	errSeq uint64

	// rounds counts completed leader fsyncs and waits the mutations that
	// entered the commit path — their ratio is the amortization factor
	// exposed on /metrics. lastCohort is the waiter count the most recent
	// round released (the cohort-size gauge).
	rounds     atomic.Int64
	waits      atomic.Int64
	lastCohort atomic.Int64
}

// init prepares the condition variable; call once at store open.
func (g *groupCommit) init() {
	g.cond = sync.NewCond(&g.mu)
}

// wait blocks until the log is durably synced past off (a logical offset
// returned by storeLog.append), electing a sync leader as needed.
func (g *groupCommit) wait(lg *storeLog, off int64) error {
	g.waits.Add(1)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.queued++
	defer func() { g.queued-- }()
	seq := g.errSeq
	for {
		if g.synced >= off {
			return nil
		}
		if g.errSeq != seq {
			return g.err
		}
		if !g.syncing {
			// Become the leader: sync once for the whole cohort. The
			// target is read before the fsync, so only offsets the fsync
			// is guaranteed to cover are marked durable (bytes below the
			// target live in sealed segments — durable since rotation —
			// or in the active file syncActive flushes).
			g.syncing = true
			g.mu.Unlock()
			// Accumulation window: writers released by the previous round
			// re-append within microseconds, so yielding a few times before
			// reading the target folds them into this cohort instead of
			// making them wait out two fsyncs. A handful of scheduler
			// yields costs nanoseconds against a ~100µs fsync.
			target := lg.end.Load()
			for i := 0; i < 8; i++ {
				runtime.Gosched()
				if t := lg.end.Load(); t <= target {
					break
				} else {
					target = t
				}
			}
			err := lg.syncActive()
			g.rounds.Add(1)
			g.mu.Lock()
			g.syncing = false
			g.lastCohort.Store(int64(g.queued))
			if err != nil {
				g.err = err
				g.errSeq++
			} else if target > g.synced {
				g.synced = target
			}
			g.cond.Broadcast()
			continue
		}
		g.cond.Wait()
	}
}
