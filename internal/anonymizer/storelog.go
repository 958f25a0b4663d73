package anonymizer

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the store-wide append-only log of the data directory
// layout: ONE physical journal for every shard, segmented so compaction
// can drop fully-snapshotted prefixes. Records are self-describing — a
// record's shard is derivable from its region ID (shardIndex), and its
// stream offset rides in the payload (walRecord.Seq) — so the per-shard
// logical streams that replication, incremental backup and reshard
// consume need no file of their own. The point of the single journal is
// group commit: with one file there is one fsync per cohort for the
// WHOLE store, where one log per shard pays one fsync per shard and
// watches them serialize in the filesystem journal.
//
// Invariants the rest of the engine leans on:
//
//   - A shard's records appear in the log in stream-offset order: every
//     append happens under that shard's lock, and the log lock orders
//     the writes of different shards without reordering any one shard's.
//   - Rotation seals: the outgoing segment is fsynced before the next
//     one is created, so every segment but the last is fully durable and
//     a torn tail can only live in the last non-empty segment.
//   - Reclaim deletes only a prefix of segments, and only segments whose
//     every shard-tail is covered by that shard's snapshot — so a
//     segment file never has a hole, and TailFrom readers holding a
//     shard read-lock can never see their segment reclaimed (the shard's
//     snapSeq cannot advance under the read lock).

// defaultSegmentBytes is the rotation threshold for log segment files.
const defaultSegmentBytes = 64 << 20

// segName returns log segment idx's file name. The index is
// minimum-width, so stores outliving 10^8 segments keep sorting
// correctly (segFileName accepts the longer names).
func segName(idx int) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// segFileName matches unified-log segment files, capturing the index.
var segFileName = regexp.MustCompile(`^wal-([0-9]{8,})\.seg$`)

// logSegment is one file of the store-wide log.
type logSegment struct {
	idx  int
	path string
	f    *os.File
	size int64 // intact bytes appended
	// lastSeq[i] is the highest stream offset of shard i that landed in
	// this segment (0: the shard has no records here). Per-shard offsets
	// are monotonic in log order, so the segment is reclaimable exactly
	// when every shard's snapshot covers its lastSeq.
	lastSeq []uint64
}

// appendLoc names where a frame landed, for the shard's offset index.
type appendLoc struct {
	seg *logSegment
	off int64
}

// storeLog is the store-wide append-only log: a list of segment files of
// which the last is the active append target.
type storeLog struct {
	dir      string
	shards   int
	segLimit int64

	// mu guards appends, rotation and the segment list. It nests INSIDE
	// a shard lock (mutate holds sh.mu, then appends) and is never held
	// across an fsync on the hot path.
	mu   sync.Mutex
	segs []*logSegment

	// end is the log's logical append position: total frame bytes
	// appended this process, monotonic (reclaim never rewinds it).
	// Group-commit leaders read it lock-free to elect a sync target.
	end atomic.Int64

	// active mirrors the active segment's handle for lock-free loads by
	// fsyncers; syncMu fences those fsyncs against close/reclaim so a
	// handle is never closed mid-Sync. Sealing at rotation is what makes
	// "fsync the active file" sufficient: every byte below the active
	// segment is already durable.
	active atomic.Pointer[os.File]
	syncMu sync.RWMutex

	// dirty marks appends not yet fsynced (the FsyncInterval loop's
	// trigger).
	dirty atomic.Bool

	// fsyncs counts every fsync the log performs (group-commit rounds,
	// interval syncs, rotation seals); hist is the latency histogram of
	// the same calls, rendered on /metrics.
	fsyncs atomic.Int64
	hist   fsyncHist
}

// append writes one framed record for shard at stream offset seq,
// rotating first when the active segment is full. It returns the frame's
// physical location (for the shard's offset index) and the log's logical
// end offset after the append (the group-commit target). On a partial
// write the segment is rewound to its last intact record so later
// appends never extend a torn frame.
func (lg *storeLog) append(frame []byte, shard int, seq uint64) (appendLoc, int64, error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	seg := lg.segs[len(lg.segs)-1]
	if seg.size > 0 && seg.size+int64(len(frame)) > lg.segLimit {
		if err := lg.rotateLocked(); err != nil {
			return appendLoc{}, 0, err
		}
		seg = lg.segs[len(lg.segs)-1]
	}
	if _, err := seg.f.Write(frame); err != nil {
		_ = seg.f.Truncate(seg.size)
		_, _ = seg.f.Seek(seg.size, io.SeekStart)
		return appendLoc{}, 0, fmt.Errorf("anonymizer: log append: %w", err)
	}
	loc := appendLoc{seg: seg, off: seg.size}
	seg.size += int64(len(frame))
	if seq > seg.lastSeq[shard] {
		seg.lastSeq[shard] = seq
	}
	end := lg.end.Add(int64(len(frame)))
	lg.dirty.Store(true)
	return loc, end, nil
}

// rotateLocked seals the active segment and opens the next one. The
// order is load-bearing: seal-fsync, then create+dirsync, then publish —
// so a crash leaves either the old segment active (fully intact) or both
// on disk with every byte of the old one durable. Either way a torn tail
// can only be in the LAST non-empty segment, which is what recovery
// relies on to tell a crash from corruption.
func (lg *storeLog) rotateLocked() error {
	cur := lg.segs[len(lg.segs)-1]
	if err := lg.timedSync(cur.f); err != nil {
		return fmt.Errorf("anonymizer: log seal: %w", err)
	}
	path := filepath.Join(lg.dir, segName(cur.idx+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("anonymizer: log rotate: %w", err)
	}
	if err := syncDir(lg.dir); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	seg := &logSegment{idx: cur.idx + 1, path: path, f: f, lastSeq: make([]uint64, lg.shards)}
	lg.segs = append(lg.segs, seg)
	lg.active.Store(f)
	return nil
}

// timedSync fsyncs f, counting the call and observing its latency.
func (lg *storeLog) timedSync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	lg.fsyncs.Add(1)
	lg.hist.observe(time.Since(start))
	return err
}

// syncActive fsyncs the active segment — the group-commit leader's sync.
// The target offset must be captured BEFORE calling (see groupCommit):
// bytes at or below a target captured earlier are either in sealed
// segments (durable since rotation) or in whatever file this call
// fsyncs, whichever of the two the active pointer resolves to.
func (lg *storeLog) syncActive() error {
	lg.syncMu.RLock()
	defer lg.syncMu.RUnlock()
	return lg.timedSync(lg.active.Load())
}

// sync is the FsyncInterval/explicit-Sync flush: fsync the active
// segment if anything was appended since the last flush. The dirty flag
// is cleared before the fsync so a concurrent append re-arms it.
func (lg *storeLog) sync() error {
	if !lg.dirty.Load() {
		return nil
	}
	lg.dirty.Store(false)
	if err := lg.syncActive(); err != nil {
		lg.dirty.Store(true)
		return fmt.Errorf("anonymizer: log sync: %w", err)
	}
	return nil
}

// reclaim deletes the prefix of segments whose every shard-tail is
// covered by that shard's snapshot (snapSeq reads the shard's published
// snapshot position without taking its lock). If that covers the whole
// log and the active segment holds bytes, it is rotated first so the
// covered bytes become a sealed, deletable prefix — the "log shrinks
// after Snapshot" property operators expect from compaction.
func (lg *storeLog) reclaim(snapSeq func(shard int) uint64) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	covered := func(seg *logSegment) bool {
		for i, last := range seg.lastSeq {
			if last > snapSeq(i) {
				return false
			}
		}
		return true
	}
	cut := 0
	for cut < len(lg.segs)-1 && covered(lg.segs[cut]) {
		cut++
	}
	if cut == len(lg.segs)-1 && lg.segs[cut].size > 0 && covered(lg.segs[cut]) {
		if err := lg.rotateLocked(); err == nil {
			cut++
		}
	}
	if cut == 0 {
		return
	}
	dead := lg.segs[:cut:cut]
	lg.segs = append(lg.segs[:0:0], lg.segs[cut:]...)
	// Close under the sync fence: a group-commit leader may have loaded
	// one of these handles as "active" just before a rotation and still
	// be fsyncing it.
	lg.syncMu.Lock()
	for _, seg := range dead {
		_ = seg.f.Close()
	}
	lg.syncMu.Unlock()
	for _, seg := range dead {
		_ = os.Remove(seg.path)
	}
}

// stats reports the log's live footprint for /metrics.
func (lg *storeLog) stats() (bytes int64, segments int) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	for _, seg := range lg.segs {
		bytes += seg.size
	}
	return bytes, len(lg.segs)
}

// close flushes the active segment and closes every handle. The sync
// fence waits out any in-flight group-commit fsync.
func (lg *storeLog) close() error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.syncMu.Lock()
	defer lg.syncMu.Unlock()
	var firstErr error
	if lg.dirty.Swap(false) {
		if err := lg.timedSync(lg.segs[len(lg.segs)-1].f); err != nil {
			firstErr = err
		}
	}
	for _, seg := range lg.segs {
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// listSegments returns dir's log segment files ascending by index,
// verifying the sequence has no holes (reclaim only ever deletes a
// prefix, so a gap means lost data).
func listSegments(dir string) ([]string, []int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("anonymizer: log dir: %w", err)
	}
	var idxs []int
	names := make(map[int]string)
	for _, e := range entries {
		m := segFileName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, err := strconv.Atoi(m[1])
		if err != nil || idx < 1 {
			return nil, nil, fmt.Errorf("%w: segment name %q", ErrCorruptLog, e.Name())
		}
		idxs = append(idxs, idx)
		names[idx] = e.Name()
	}
	sort.Ints(idxs)
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		if i > 0 && idx != idxs[i-1]+1 {
			return nil, nil, fmt.Errorf("%w: log segment gap between %d and %d",
				ErrCorruptLog, idxs[i-1], idx)
		}
		out[i] = names[idx]
	}
	return out, idxs, nil
}

// openStoreLog opens (or initializes) the unified log in dir, replaying
// every intact record through fn in log order. fn receives the record
// and its physical location and returns the record's shard and stream
// offset, which the log needs for per-segment reclaim bookkeeping. A
// torn tail is tolerated only where a crash can put one — the last
// non-empty segment, with nothing after it — and is truncated away;
// damage anywhere else is corruption and fails the open. Returns the log
// and the torn bytes dropped.
func openStoreLog(
	dir string, shards int, segLimit int64,
	fn func(rec *walRecord, seg *logSegment, off int64, n int) (int, uint64, error),
) (*storeLog, int64, error) {
	names, idxs, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	lg := &storeLog{dir: dir, shards: shards, segLimit: segLimit}
	fail := func(err error) (*storeLog, int64, error) {
		for _, seg := range lg.segs {
			if seg.f != nil {
				_ = seg.f.Close()
			}
		}
		return nil, 0, err
	}
	if len(names) == 0 {
		path := filepath.Join(dir, segName(1))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
		if err != nil {
			return nil, 0, fmt.Errorf("anonymizer: log init: %w", err)
		}
		if err := syncDir(dir); err != nil {
			_ = f.Close()
			return nil, 0, err
		}
		lg.segs = []*logSegment{{idx: 1, path: path, f: f, lastSeq: make([]uint64, shards)}}
		lg.active.Store(f)
		return lg, 0, nil
	}
	type scanState struct {
		intact int64
		total  int64
		torn   bool
	}
	states := make([]scanState, len(names))
	for i, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.OpenFile(path, os.O_RDWR, 0o600)
		if err != nil {
			return fail(fmt.Errorf("anonymizer: opening log segment: %w", err))
		}
		seg := &logSegment{idx: idxs[i], path: path, f: f, lastSeq: make([]uint64, shards)}
		lg.segs = append(lg.segs, seg)
		var off int64
		intact, rerr := readFrames(f, func(payload []byte) error {
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("%w: %v", ErrCorruptLog, err)
			}
			n := walHeaderSize + len(payload)
			shard, seq, err := fn(&rec, seg, off, n)
			if err != nil {
				return err
			}
			if seq > seg.lastSeq[shard] {
				seg.lastSeq[shard] = seq
			}
			off += int64(n)
			return nil
		})
		if rerr != nil && !errors.Is(rerr, errTornTail) {
			return fail(fmt.Errorf("anonymizer: replaying %s: %w", path, rerr))
		}
		end, serr := f.Seek(0, io.SeekEnd)
		if serr != nil {
			return fail(fmt.Errorf("anonymizer: log seek: %w", serr))
		}
		states[i] = scanState{intact: intact, total: end, torn: errors.Is(rerr, errTornTail)}
		seg.size = intact
	}
	lastData := -1
	for i := range states {
		if states[i].total > 0 {
			lastData = i
		}
	}
	var truncated int64
	for i := range states {
		damaged := states[i].torn || states[i].intact < states[i].total
		if !damaged {
			continue
		}
		if i != lastData {
			// Rotation seals segments before creating successors, so a
			// non-final segment can never legitimately be torn.
			return fail(fmt.Errorf("%w: damaged non-final log segment %s", ErrCorruptLog, names[i]))
		}
		seg := lg.segs[i]
		truncated += states[i].total - states[i].intact
		if err := seg.f.Truncate(states[i].intact); err != nil {
			return fail(fmt.Errorf("anonymizer: truncating torn log tail: %w", err))
		}
	}
	last := lg.segs[len(lg.segs)-1]
	if _, err := last.f.Seek(last.size, io.SeekStart); err != nil {
		return fail(fmt.Errorf("anonymizer: log seek: %w", err))
	}
	var total int64
	for _, seg := range lg.segs {
		total += seg.size
	}
	lg.end.Store(total)
	lg.active.Store(last.f)
	return lg, truncated, nil
}

// fsyncHist is a lock-free latency histogram over latencyBuckets,
// recording WAL fsync durations for /metrics.
type fsyncHist struct {
	buckets  [len(latencyBuckets)]atomic.Int64 // non-cumulative; cumulated at render
	count    atomic.Int64
	sumNanos atomic.Int64
}

// observe records one fsync.
func (h *fsyncHist) observe(d time.Duration) {
	secs := d.Seconds()
	for i, ub := range latencyBuckets {
		if secs <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}
