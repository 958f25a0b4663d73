package anonymizer

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
// can drop fully-snapshotted prefixes. Every record has one log sequence
// number (LSN): its position in the log, counting from 1. The LSN is
// implicit — nothing in the record carries it — because each segment file
// is named by the LSN of its first record (as Kafka names segments by
// base offset), so a record's LSN is its segment's base plus its index
// there. A record's shard follows from its region ID (shardIndex), so
// replication and incremental backup both read the one log by LSN. The
// point of the single journal is group commit: with one file there is one
// fsync per cohort for the WHOLE store, where one log per shard pays one
// fsync per shard and watches them serialize in the filesystem journal.
//
// Invariants the rest of the engine leans on:
//
//   - LSNs are dense: segment bases continue each other (each base is the
//     previous base plus the previous record count), and an empty log at
//     position E is one empty segment with base E+1.
//   - A shard's records appear in LSN order: every append happens under
//     that shard's lock, and the log lock assigns LSNs.
//   - Rotation seals: the outgoing segment is fsynced before the next
//     one is created, so every segment but the last is fully durable and
//     a torn tail can only live in the last non-empty segment.
//   - Reclaim deletes only a prefix of segments, and only segments every
//     shard's snapshot covers, and never while a reader holds a range.

// defaultSegmentBytes is the rotation threshold for log segment files.
const defaultSegmentBytes = 64 << 20

// segName returns the file name of the log segment whose first record has
// LSN base. Twenty digits hold any uint64, so names sort like LSNs.
func segName(base uint64) string { return fmt.Sprintf("wal-%020d.seg", base) }

// segFileName matches log segment files, capturing the base LSN.
var segFileName = regexp.MustCompile(`^wal-([0-9]{20})\.seg$`)

// errDuplicateLSN reports an append at an LSN the log already holds: a
// replicated record delivered twice.
var errDuplicateLSN = errors.New("anonymizer: record already in the log")

// logSegment is one file of the store-wide log.
type logSegment struct {
	base uint64 // LSN of the segment's first record
	path string
	f    *os.File
	size int64   // intact bytes appended
	offs []int64 // offs[i] is the byte offset of the record at LSN base+i
}

// next returns the LSN the record after this segment's last one takes.
func (seg *logSegment) next() uint64 { return seg.base + uint64(len(seg.offs)) }

// storeLog is the store-wide append-only log: a list of segment files of
// which the last is the active append target.
type storeLog struct {
	dir      string
	segLimit int64

	// mu guards appends, rotation, the segment list, pending and readers.
	// It nests INSIDE a shard lock (mutate holds sh.mu, then appends) and
	// is never held across an fsync on the hot path.
	mu   sync.Mutex
	segs []*logSegment
	// pending[s] is the LSN of shard s's first record its snapshot does
	// not cover yet (0: none). The smallest is the reclaim floor.
	pending [DefaultShards]uint64
	// readers counts reads in flight over the segments (stream tails,
	// backups); reclaim deletes nothing while any is.
	readers int

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

// append writes one framed record of shard at the next LSN, rotating
// first when the active segment is full, and returns the log's logical
// end offset after the append (the group-commit target). lsn is the
// position the caller expects the record to take, 0 for whatever comes
// next: a replicated record must land exactly where the leader put it, so
// an LSN the log already holds reports errDuplicateLSN and one past the
// next reports ErrStreamGap — checked here, under the lock that assigns
// LSNs. On a partial write the segment is rewound to its last intact
// record so later appends never extend a torn frame.
func (lg *storeLog) append(frame []byte, shard int, lsn uint64) (int64, error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	seg := lg.segs[len(lg.segs)-1]
	next := seg.next()
	switch {
	case lsn == 0 || lsn == next:
	case lsn < next:
		return 0, errDuplicateLSN
	default:
		return 0, fmt.Errorf("%w: log ends at %d, record at %d", ErrStreamGap, next-1, lsn)
	}
	if len(seg.offs) > 0 && seg.size+int64(len(frame)) > lg.segLimit {
		if err := lg.rotateLocked(); err != nil {
			return 0, err
		}
		seg = lg.segs[len(lg.segs)-1]
	}
	if _, err := seg.f.Write(frame); err != nil {
		_ = seg.f.Truncate(seg.size)
		_, _ = seg.f.Seek(seg.size, io.SeekStart)
		return 0, fmt.Errorf("anonymizer: log append: %w", err)
	}
	seg.offs = append(seg.offs, seg.size)
	seg.size += int64(len(frame))
	if lg.pending[shard] == 0 {
		lg.pending[shard] = next
	}
	end := lg.end.Add(int64(len(frame)))
	lg.dirty.Store(true)
	return end, nil
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
	seg, err := createSegment(lg.dir, cur.next())
	if err != nil {
		return err
	}
	lg.segs = append(lg.segs, seg)
	lg.active.Store(seg.f)
	return nil
}

// createSegment creates the empty segment file with the given base LSN
// and makes its name durable.
func createSegment(dir string, base uint64) (*logSegment, error) {
	path := filepath.Join(dir, segName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("anonymizer: log segment create: %w", err)
	}
	if err := syncDir(dir); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return nil, err
	}
	return &logSegment{base: base, path: path, f: f}, nil
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

// lastLSN returns the LSN of the last record appended (0: none ever).
func (lg *storeLog) lastLSN() uint64 {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.segs[len(lg.segs)-1].next() - 1
}

// pin and unpin bracket a reader that must see every segment it found at
// pin time: reclaim deletes nothing while any reader holds the log.
func (lg *storeLog) pin() {
	lg.mu.Lock()
	lg.readers++
	lg.mu.Unlock()
}

func (lg *storeLog) unpin() {
	lg.mu.Lock()
	lg.readers--
	lg.mu.Unlock()
}

// reclaim records that shard's snapshot now covers every record it has,
// then deletes the prefix of segments all shards are done with and that
// hold nothing past keep: a segment goes once its last LSN lies at or
// below keep and below every shard's first un-snapshotted record. A shard
// with no such record pins nothing, so an idle shard never holds the log
// back. keep is the log's last LSN when the compaction began, so the
// expire records its sweep journals stay on disk for the followers that
// were caught up then. If that covers the whole log and the active
// segment holds records, it is rotated first so they become a sealed,
// deletable prefix — the "log shrinks after Snapshot" property operators
// expect from compaction. Reclaim is best-effort: while a reader holds the
// log it deletes nothing, and the next snapshot's reclaim catches up.
func (lg *storeLog) reclaim(shard int, keep uint64) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.pending[shard] = 0
	if lg.readers > 0 {
		return
	}
	floor := keep + 1
	for _, p := range lg.pending {
		if p != 0 && p < floor {
			floor = p
		}
	}
	cut := 0
	for cut < len(lg.segs)-1 && lg.segs[cut].next() <= floor {
		cut++
	}
	if last := lg.segs[cut]; cut == len(lg.segs)-1 && len(last.offs) > 0 && last.next() <= floor {
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

// read returns the frames of the records after LSN after, exactly as
// they lie in the segments, and the log's last LSN. after beyond the end
// is ErrBadOp (the reader's position comes from another history);
// records after it already reclaimed are ErrStreamGap (the reader must
// restart from a full backup). The segments read stay pinned until the
// bytes are copied.
func (lg *storeLog) read(after uint64) ([]byte, uint64, error) {
	type piece struct {
		f      *os.File
		off, n int64
	}
	lg.mu.Lock()
	last := lg.segs[len(lg.segs)-1].next() - 1
	switch {
	case after > last:
		lg.mu.Unlock()
		return nil, last, fmt.Errorf("%w: position %d is beyond the log's last LSN %d", ErrBadOp, after, last)
	case after == last:
		lg.mu.Unlock()
		return nil, last, nil
	case after+1 < lg.segs[0].base:
		lg.mu.Unlock()
		return nil, last, fmt.Errorf("%w: position %d, oldest record on disk %d",
			ErrStreamGap, after, lg.segs[0].base)
	}
	var pieces []piece
	var total int64
	for _, seg := range lg.segs {
		if seg.next() <= after+1 {
			continue
		}
		off := seg.offs[max(after+1, seg.base)-seg.base]
		pieces = append(pieces, piece{f: seg.f, off: off, n: seg.size - off})
		total += seg.size - off
	}
	lg.readers++
	lg.mu.Unlock()
	defer lg.unpin()
	buf := make([]byte, total)
	var pos int64
	for _, p := range pieces {
		if _, err := p.f.ReadAt(buf[pos:pos+p.n], p.off); err != nil {
			return nil, last, fmt.Errorf("anonymizer: log read: %w", err)
		}
		pos += p.n
	}
	return buf, last, nil
}

// tail returns what a holder of shard snapshots covering lsns needs from
// the log: the frames of every record after the oldest of those LSNs,
// clamped to the oldest record still on disk (a reclaimed record was
// below every shard's floor, so every snapshot holds it already). It
// also returns the LSN before the first frame and the log's last LSN.
// The caller pins the log, so nothing it needs is reclaimed meanwhile.
// (A snapshot past the log's end — a machine crash lost the log's
// unsynced tail — needs nothing from it.)
func (lg *storeLog) tail(lsns []uint64) ([]byte, uint64, uint64, error) {
	after := uint64(math.MaxUint64)
	for _, l := range lsns {
		after = min(after, l)
	}
	lg.mu.Lock()
	after = min(max(after, lg.segs[0].base-1), lg.segs[len(lg.segs)-1].next()-1)
	lg.mu.Unlock()
	raw, last, err := lg.read(after)
	return raw, after, last, err
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
		if seg.f == nil {
			continue
		}
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// scanLog opens dir's log segments with flag, in LSN order, and hands
// every intact record's payload to fn (nil: nothing to decode). It
// enforces what a crash can and cannot leave behind: each segment's base
// continues the previous one (reclaim only deletes a prefix, so a
// mismatch means lost records), and a torn tail lives only in the last
// non-empty segment. Each returned segment's size is its intact byte
// count; damaged indexes the segment holding torn bytes (-1: none), and
// torn counts them.
func scanLog(dir string, flag int, fn func(lsn uint64, payload []byte) error) (
	segs []*logSegment, damaged int, torn int64, err error,
) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("anonymizer: log dir: %w", err)
	}
	defer func() {
		if err != nil {
			for _, seg := range segs {
				_ = seg.f.Close()
			}
			segs = nil
		}
	}()
	for _, e := range entries {
		if m := segFileName.FindStringSubmatch(e.Name()); m != nil {
			base, perr := strconv.ParseUint(m[1], 10, 64)
			if perr != nil || base < 1 {
				return nil, 0, 0, fmt.Errorf("%w: segment name %q", ErrCorruptLog, e.Name())
			}
			segs = append(segs, &logSegment{base: base, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	damaged, lastData := -1, -1
	for i, seg := range segs {
		if i > 0 && seg.base != segs[i-1].next() {
			return segs, 0, 0, fmt.Errorf("%w: log segment %s does not continue %s (LSN %d expected)",
				ErrCorruptLog, filepath.Base(seg.path), filepath.Base(segs[i-1].path), segs[i-1].next())
		}
		if seg.f, err = os.OpenFile(seg.path, flag, 0o600); err != nil {
			return segs, 0, 0, fmt.Errorf("anonymizer: opening log segment: %w", err)
		}
		intact, rerr := readFrames(bufio.NewReaderSize(seg.f, 64<<10), func(payload []byte) error {
			if fn != nil {
				if err := fn(seg.next(), payload); err != nil {
					return err
				}
			}
			seg.offs = append(seg.offs, seg.size)
			seg.size += walHeaderSize + int64(len(payload))
			return nil
		})
		if rerr != nil && !errors.Is(rerr, errTornTail) {
			return segs, 0, 0, fmt.Errorf("anonymizer: replaying %s: %w", seg.path, rerr)
		}
		total, serr := seg.f.Seek(0, io.SeekEnd)
		if serr != nil {
			return segs, 0, 0, fmt.Errorf("anonymizer: log seek: %w", serr)
		}
		if total > 0 {
			lastData = i
		}
		if errors.Is(rerr, errTornTail) || intact < total {
			if damaged >= 0 {
				return segs, 0, 0, fmt.Errorf("%w: damaged non-final log segment %s", ErrCorruptLog, segs[damaged].path)
			}
			damaged, torn = i, total-intact
		}
	}
	if damaged >= 0 && damaged != lastData {
		// Rotation seals segments before creating successors, so a
		// non-final segment can never legitimately be torn.
		return segs, 0, 0, fmt.Errorf("%w: damaged non-final log segment %s", ErrCorruptLog, segs[damaged].path)
	}
	return segs, damaged, torn, nil
}

// openStoreLog opens (or initializes) the log in dir for appending,
// replaying every intact record through fn in LSN order. fn returns the
// record's shard and whether its snapshot does not cover it yet, which
// seeds the reclaim floor. The torn tail of the last non-empty segment —
// the only place a crash can put one — is truncated away; damage anywhere
// else fails the open. Returns the log and the torn bytes dropped.
func openStoreLog(
	dir string, segLimit int64,
	fn func(lsn uint64, rec *walRecord) (shard int, pending bool, err error),
) (*storeLog, int64, error) {
	lg := &storeLog{dir: dir, segLimit: segLimit}
	segs, damaged, torn, err := scanLog(dir, os.O_RDWR, func(lsn uint64, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptLog, err)
		}
		shard, pending, err := fn(lsn, &rec)
		if err == nil && pending && lg.pending[shard] == 0 {
			lg.pending[shard] = lsn
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	lg.segs = segs
	if len(segs) == 0 {
		seg, err := createSegment(dir, 1)
		if err != nil {
			return nil, 0, err
		}
		lg.segs = []*logSegment{seg}
	}
	fail := func(err error) (*storeLog, int64, error) {
		for _, seg := range lg.segs {
			_ = seg.f.Close()
		}
		return nil, 0, err
	}
	if damaged >= 0 {
		if err := segs[damaged].f.Truncate(segs[damaged].size); err != nil {
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
	return lg, torn, nil
}

// openLogReader opens a closed directory's log read-only for the offline
// tools (cold and incremental backup): the records recovery would replay,
// with nothing truncated or created.
func openLogReader(dir string) (*storeLog, error) {
	segs, _, _, err := scanLog(dir, os.O_RDONLY, nil)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		// A directory that crashed before its first segment existed: an
		// empty log at position 0.
		segs = []*logSegment{{base: 1}}
	}
	return &storeLog{dir: dir, segs: segs}, nil
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
