package anonymizer

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/reversecloak/reversecloak/internal/keys"
)

// ErrStoreClosed reports use of a closed store.
var ErrStoreClosed = errors.New("anonymizer: store closed")

// FsyncPolicy selects when the durable store forces WAL appends to disk.
// The policy is the store's durability/throughput dial.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncInterval (the default) syncs the dirty log from a background
	// goroutine every fsync interval: a crash loses at most the last
	// interval's acknowledgements, at near-in-memory throughput.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs every record to disk before the operation is
	// acknowledged: no acked registration is ever lost. Concurrent
	// mutations on every shard coalesce into one fsync per cohort of the
	// store-wide log (group commit), so the per-operation tax shrinks as
	// concurrency grows.
	FsyncAlways
	// FsyncNever leaves flushing to the operating system: the log still
	// survives process crashes (the kernel holds the pages), but not
	// machine crashes.
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy maps the CLI spelling ("always", "interval", "never")
// to its policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("%w: fsync policy %q (want always, interval or never)", ErrBadOp, s)
	}
}

// DurabilityOption customizes a store (OpenDurableStore).
type DurabilityOption func(*durabilityConfig)

// durabilityConfig collects the store tunables.
type durabilityConfig struct {
	fsync         FsyncPolicy
	fsyncEvery    time.Duration
	snapshotEvery int
	segBytes      int64
	ttl           time.Duration
	gcInterval    time.Duration
	replica       bool
	keyring       *keys.Keyring
	now           func() time.Time
}

// defaultDurabilityConfig returns the config before options are applied.
func defaultDurabilityConfig() durabilityConfig {
	return durabilityConfig{
		fsync:         FsyncInterval,
		fsyncEvery:    100 * time.Millisecond,
		snapshotEvery: 4096,
		segBytes:      defaultSegmentBytes,
		gcInterval:    DefaultGCInterval,
		now:           time.Now,
	}
}

// WithFsyncPolicy selects when WAL appends reach the disk.
func WithFsyncPolicy(p FsyncPolicy) DurabilityOption {
	return func(c *durabilityConfig) { c.fsync = p }
}

// WithFsyncEvery sets the background sync period used by FsyncInterval
// (default 100ms). Ignored by the other policies.
func WithFsyncEvery(d time.Duration) DurabilityOption {
	return func(c *durabilityConfig) {
		if d > 0 {
			c.fsyncEvery = d
		}
	}
}

// WithSnapshotEvery compacts a shard's WAL into a snapshot after n
// appended records (default 4096; 0 disables count-based compaction).
func WithSnapshotEvery(n int) DurabilityOption {
	return func(c *durabilityConfig) {
		if n >= 0 {
			c.snapshotEvery = n
		}
	}
}

// WithTTL gives every registration without an expiry of its own a default
// lifetime of d (default 0: registrations live until deregistered unless
// the client set a TTL). The expiry is journaled with the registration,
// so it survives restarts.
func WithTTL(d time.Duration) DurabilityOption {
	return func(c *durabilityConfig) {
		if d >= 0 {
			c.ttl = d
		}
	}
}

// WithGCInterval sets the expiry sweep period (default one minute; 0
// disables the background sweeper — expired registrations are still
// invisible immediately, but are then only removed, by journaled expire
// records, at explicit SweepExpired calls and at compaction, which sweeps
// the shard it compacts first).
func WithGCInterval(d time.Duration) DurabilityOption {
	return func(c *durabilityConfig) {
		if d >= 0 {
			c.gcInterval = d
		}
	}
}

// WithReplica opens the store as a replication follower: local mutations
// are refused with ErrNotLeader and sweeps (the sweeper's and
// compaction's) expire nothing, because every state change — expiries
// included — arrives through the leader's mutation stream (ApplyDelta).
// Promotion (SetReplica(false)) turns the store back into a writable
// leader, whose next sweep journals whatever has elapsed.
func WithReplica() DurabilityOption {
	return func(c *durabilityConfig) { c.replica = true }
}

// WithKeyring installs the master keyring, and with it derived
// per-registration keys: a server over this store derives every new
// registration's cloak keys from the keyring's active epoch and the
// registration's ID instead of generating and storing random ones, and the
// registration records only the (epoch, levels) reference. Rotating the
// active epoch switches new registrations to it; existing ones keep
// deriving under the epoch they were cut with. Recovery, replication
// ingest and restore resolve those references through the same keyring,
// which is why it is configured here and nowhere else: a store holding
// derived registrations cannot open without a keyring covering their
// epochs. The keyring is caller-owned (it may be watching a key file).
func WithKeyring(kr *keys.Keyring) DurabilityOption {
	return func(c *durabilityConfig) { c.keyring = kr }
}

// WithClock substitutes the store's wall clock (expiry evaluation, TTL
// stamping). Intended for tests and deterministic harnesses.
func WithClock(now func() time.Time) DurabilityOption {
	return func(c *durabilityConfig) {
		if now != nil {
			c.now = now
		}
	}
}

// RecoveryStats describes what OpenDurableStore found on disk.
type RecoveryStats struct {
	// Registrations is the number of registrations recovered, counting
	// elapsed leases no expire record has removed yet (as Len does).
	Registrations int
	// TrustUpdates is the number of trust records replayed from the WALs.
	TrustUpdates int
	// Deregistrations is the number of deregister records replayed.
	Deregistrations int
	// Renewals is the number of touch (lease renewal) records replayed.
	Renewals int
	// Expired is the number of journaled expire records replayed that
	// removed an entry. Recovery removes nothing else: a lease that
	// elapsed while the store was down is refused by lazy expiry from the
	// open on, and the leader's first sweep journals its expire.
	Expired int
	// TruncatedBytes counts torn tail bytes dropped across all WALs (0
	// after a clean shutdown).
	TruncatedBytes int64
}

// durableShard is one partition of the store: lock striping over the
// in-memory registration table. Its records live in the store-wide log;
// its snapshot covers every one of them up to snapLSN.
type durableShard struct {
	mu         sync.RWMutex
	tab        regTable
	idx        int // shard number (the log tracks each shard's reclaim floor by it)
	snapPath   string
	walRecords int // records since the last snapshot
	buf        []byte

	// snapLSN is the LSN the current snapshot covers: the shard's records
	// at or below it live in the snapshot, so recovery skips them in the
	// log.
	snapLSN uint64
}

// DurableStore is the registration store — the one place a region, its
// per-level keys and its owner's trust policy are held. Every mutation of
// registration state is a typed Mutation (register, set-trust, deregister,
// touch, expire) that runs check → journal → apply under its shard's lock,
// applied by one shared implementation (regTable.apply).
//
// Opened over a directory it is crash-safe: every mutation is journaled to
// the store-wide CRC-framed write-ahead log before it is acknowledged,
// shards are periodically compacted into snapshots, and OpenDurableStore
// replays snapshot + log through the same apply path the live store uses —
// preserving the paper's reversibility guarantee across restarts, since a
// region is only de-anonymizable while the service still holds its keys.
// Registrations with a TTL expire on schedule: an elapsed lease is
// refused at once (lazy expiry), and only a journaled expire mutation —
// written by the sweeper, or by the sweep compaction runs first — removes
// it, so every copy of the store forgets it at the same point of the log
// and a reopened store never resurrects a dead region. Opened without a
// directory it is the same store minus the journal step (see
// OpenDurableStore).
//
// It is safe for concurrent use; plug it into a server with WithStore.
type DurableStore struct {
	dir    string
	cfg    durabilityConfig
	shards [DefaultShards]*durableShard
	nextID atomic.Uint64
	stats  RecoveryStats

	// log is the store-wide unified journal every shard appends into (nil
	// in a journal-less store); gc is the store-wide group commit over it —
	// ONE fsync per cohort for the whole store, which is the point of the
	// single-log layout.
	log *storeLog
	gc  groupCommit

	snapshots atomic.Int64 // compactions performed (observable in tests)

	// recordsTotal counts records journaled, behind WALStats (/metrics).
	// Fsync counters live on the log itself (every fsync goes through it).
	recordsTotal atomic.Int64

	// replica marks the store as a replication follower: local mutations
	// are refused with ErrNotLeader (state arrives only through
	// ApplyDelta) and sweeps expire nothing — expiry still hides entries
	// instantly, but expire records come from the leader's stream, so the
	// follower's log never diverges from it. Promotion clears the flag.
	replica atomic.Bool

	// Epoch record (EPOCH.json): the leader/lease fencing state of this
	// data directory. See Epoch/EpochRecord/SetEpoch in stream.go.
	epochMu     sync.Mutex
	epochVal    uint64
	epochLeader bool
	epochKnown  bool // EPOCH.json existed (or was written) for this dir

	closed atomic.Bool
	stop   chan struct{}
	bg     sync.WaitGroup

	// Crash-simulation test hooks (nil in production): a non-nil error
	// aborts snapshotShardLocked at that point exactly as a crash would,
	// leaving the on-disk state of the corresponding failure window —
	// tmp written but not renamed, or renamed but WAL not yet truncated.
	hookBeforeSnapRename func() error
	hookAfterSnapRename  func() error
}

// OpenDurableStore opens (or initializes) a durable store rooted at dir,
// recovering any state a previous process left there. The directory holds
// one shard-NNNN.snap snapshot per shard plus the store-wide unified log
// (wal-<base LSN>.seg segments); recovery loads each shard's snapshot,
// replays the log once — routing each record to its shard by region-ID
// hash — and truncates any torn tail a crash left behind (see Recovery
// for what was found). This is the only layout the store reads or writes:
// a directory whose META names any other version is refused with
// ErrUnsupportedLayout before a byte of it is touched.
//
// An empty dir opens a journal-less store: the same shards, lifecycle,
// TTLs, sweeper and closed-store semantics with nothing on disk — no log,
// no snapshots, no group commit, and no record encoding on the write path.
// Its state dies with the process. One rule covers everything that exists
// only for the journal: the options that configure it (WithFsyncPolicy,
// WithFsyncEvery, WithSnapshotEvery, WithReplica) are accepted and inert,
// and the methods that read or ship it (Snapshot, WriteBackup,
// WriteIncrementalBackup, ApplyDelta, SetEpoch) fail with ErrBadOp
// "… requires a durable store".
//
// Opening journals nothing: recovery only replays, and a lease that
// elapsed while the store was down stays (invisibly) in memory until the
// leader's first sweep journals its expire. The sweeper starts here on
// every store with a GC interval; the store must be closed to stop it.
func OpenDurableStore(dir string, opts ...DurabilityOption) (*DurableStore, error) {
	cfg := defaultDurabilityConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, fmt.Errorf("anonymizer: durable dir: %w", err)
		}
		if err := loadOrInitMeta(dir); err != nil {
			return nil, err
		}
	}
	s := &DurableStore{dir: dir, cfg: cfg, stop: make(chan struct{})}
	s.gc.init()
	if dir == "" {
		// Journal-less: nothing to recover, no sync loop, and (WithReplica
		// being inert) always a leader — the standalone epoch state
		// loadEpoch defaults to.
		s.epochVal, s.epochLeader = 1, true
		for i := range s.shards {
			s.shards[i] = &durableShard{tab: newRegTable(), idx: i}
		}
		s.startSweeper()
		return s, nil
	}
	s.replica.Store(cfg.replica)
	if err := s.loadEpoch(); err != nil {
		return nil, err
	}

	// Phase 1: per-shard snapshots (each a complete, atomic image).
	var maxID uint64
	note := func(id string) {
		if n, ok := parseRegionID(id); ok && n > maxID {
			maxID = n
		}
	}
	for i := range s.shards {
		sh, err := s.loadShardSnapshot(i, &maxID)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}

	// Phase 2: one pass over the log in LSN order. A record's shard comes
	// from its region-ID hash; a record at or below that shard's snapshot
	// LSN is already in the snapshot (a crash between snapshot rename and
	// segment reclaim) and is skipped, the rest replay through the shared
	// apply.
	lg, truncated, err := openStoreLog(dir, cfg.segBytes,
		func(lsn uint64, rec *walRecord) (int, bool, error) {
			if rec.Type == recSnapHeader {
				return 0, false, fmt.Errorf("%w: unexpected %q record in log", ErrCorruptLog, rec.Type)
			}
			shard := int(shardIndex(rec.ID, shardMask))
			sh := s.shards[shard]
			note(rec.ID)
			if lsn <= sh.snapLSN {
				return shard, false, nil
			}
			m, err := mutationFromRecord(rec, s.cfg.keyring)
			if err != nil {
				return 0, false, err
			}
			applied, err := sh.tab.apply(m, applyReplay, 0)
			if err != nil {
				return 0, false, err
			}
			s.stats.note(m, applied)
			sh.walRecords++
			return shard, true, nil
		})
	if err != nil {
		return nil, err
	}
	s.log = lg
	s.stats.TruncatedBytes += truncated

	for _, sh := range s.shards {
		s.stats.Registrations += len(sh.tab.regs)
	}
	s.nextID.Store(maxID)
	// A snapshot never covers an LSN the log has not reached — unless a
	// machine crash lost the log's unsynced tail after the snapshot was
	// written. Re-cut such a snapshot at the log's end: new records would
	// otherwise take LSNs it claims to cover, and the next recovery would
	// skip them. The re-cut writes the table as replayed, without the
	// sweep compaction runs first, so the open journals nothing.
	for _, sh := range s.shards {
		if sh.snapLSN > lg.lastLSN() {
			if err := s.snapshotShardLocked(sh, lg.lastLSN()); err != nil {
				_ = lg.close()
				return nil, err
			}
		}
	}
	if cfg.fsync == FsyncInterval {
		s.bg.Add(1)
		go tickLoop(&s.bg, s.stop, cfg.fsyncEvery, func() { _ = s.Sync() })
	}
	s.startSweeper()
	return s, nil
}

// startSweeper starts the background expiry sweep (SweepExpired every GC
// interval; none at interval 0). On a replica each pass is a no-op, so a
// promoted follower sweeps from its next tick on.
func (s *DurableStore) startSweeper() {
	if s.cfg.gcInterval <= 0 {
		return
	}
	s.bg.Add(1)
	go tickLoop(&s.bg, s.stop, s.cfg.gcInterval, func() { _, _ = s.SweepExpired() })
}

// storeMeta is the self-describing header of a durable data directory.
// Shards is always DefaultShards: region IDs map to snapshot files by
// hash, so a directory cut at another stripe count keeps its registrations
// in files this binary would not look in, and is refused.
type storeMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// metaFile is the data-directory header file name.
const metaFile = "META.json"

// storeMetaVersion is the one data-directory layout version this code
// reads and writes: 4, the single-sequence layout — shard-NNNN.snap
// snapshots that each name the LSN they cover, and wal-<base LSN>.seg
// segments of one log whose records carry no position of their own.
// Directories in any other version are refused (ErrUnsupportedLayout); a
// backup archive is the bridge between versions, because RestoreArchive
// always stages this layout.
const storeMetaVersion = 4

// ErrUnsupportedLayout reports a data directory whose META names a layout
// version other than the one this binary reads and writes, or a stripe
// count other than DefaultShards. Nothing in the directory has been
// created, renamed or deleted when it is returned; the way across is to
// restore the directory from a backup archive.
var ErrUnsupportedLayout = errors.New("anonymizer: unsupported data directory layout version")

// readMeta checks an existing data directory's header. A missing header
// reports os.ErrNotExist (wrapped): the directory was never initialized as
// a durable store. A header at any layout version but the current one, or
// at any stripe count but DefaultShards, reports ErrUnsupportedLayout.
func readMeta(dir string) error {
	path := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("anonymizer: no durable data directory at %s: %w", dir, err)
	}
	var m storeMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("anonymizer: parsing %s: %w", path, err)
	}
	if m.Version != storeMetaVersion {
		return fmt.Errorf("%w: %s is version %d, this binary supports only version %d (restore the directory from a backup archive)",
			ErrUnsupportedLayout, path, m.Version, storeMetaVersion)
	}
	if m.Shards != DefaultShards {
		return fmt.Errorf("%w: %s has %d stripes, this binary supports only %d (back the directory up with the binary that wrote it and restore the archive with this one)",
			ErrUnsupportedLayout, path, m.Shards, DefaultShards)
	}
	return nil
}

// writeMeta writes dir's header at the current layout version — write +
// fsync + rename, like snapshots: the rename must never be able to
// outlive the file contents on a machine crash, or the store would reopen
// to an unparseable META.json. The caller syncs dir.
func writeMeta(dir string) error {
	raw, err := json.Marshal(storeMeta{Version: storeMetaVersion, Shards: DefaultShards})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, metaFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("anonymizer: writing store meta: %w", err)
	}
	_, err = f.Write(append(raw, '\n'))
	if serr := syncClose(f); err == nil {
		err = serr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("anonymizer: writing store meta: %w", err)
	}
	return nil
}

// loadOrInitMeta checks the directory's header, writing it on first open.
func loadOrInitMeta(dir string) error {
	err := readMeta(dir)
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := writeMeta(dir); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadShardSnapshot loads one shard's snapshot image (the unified-log
// replay continues it afterwards). Register records route through the
// shared mutation-apply path in replay mode; maxID accumulates across
// shards in the caller.
func (s *DurableStore) loadShardSnapshot(i int, maxID *uint64) (*durableShard, error) {
	sh := &durableShard{
		tab:      newRegTable(),
		idx:      i,
		snapPath: filepath.Join(s.dir, shardSnapName(i)),
	}
	// Snapshots are written to a temp file and renamed into place, so a
	// snapshot either exists completely or not at all; any framing error
	// inside one is real corruption, not a torn write.
	snap, err := os.Open(sh.snapPath)
	if os.IsNotExist(err) {
		return sh, nil
	}
	if err != nil {
		return nil, fmt.Errorf("anonymizer: opening snapshot: %w", err)
	}
	_, rerr := readRecords(snap, func(rec *walRecord) error {
		switch rec.Type {
		case recSnapHeader:
			if rec.NextID > *maxID {
				*maxID = rec.NextID
			}
			sh.snapLSN = rec.LSN
			return nil
		case recRegister:
			m, err := mutationFromRecord(rec, s.cfg.keyring)
			if err != nil {
				return err
			}
			if n, ok := parseRegionID(rec.ID); ok && n > *maxID {
				*maxID = n
			}
			applied, err := sh.tab.apply(m, applyReplay, 0)
			if err != nil {
				return err
			}
			s.stats.note(m, applied)
			return nil
		default:
			return fmt.Errorf("%w: unexpected %q record in snapshot", ErrCorruptLog, rec.Type)
		}
	})
	_ = snap.Close()
	if rerr != nil {
		if errors.Is(rerr, errTornTail) {
			rerr = fmt.Errorf("%w: truncated snapshot %s", ErrCorruptLog, sh.snapPath)
		}
		return nil, rerr
	}
	return sh, nil
}

// parseRegionID extracts the counter value from an "r<n>" region ID.
func parseRegionID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'r' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// shardFor maps a region ID to its shard.
func (s *DurableStore) shardFor(id string) *durableShard {
	return s.shards[shardIndex(id, shardMask)]
}

// setCacheInvalidator routes fn into every shard's table, which reports
// removed registrations to it from the shared apply path, so
// live mutations, follower frame ingest, the GC sweeper and snapshot
// compaction's expiry sweep all invalidate the server's read-path cache
// identically.
func (s *DurableStore) setCacheInvalidator(fn func(id string)) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.tab.inval = fn
		sh.mu.Unlock()
	}
}

// appendLocked journals one record to the log under the shard's lock (so
// the record is encoded there, never under the log's lock) and returns
// the log's logical end offset after the append — the group-commit wait
// target. Durability is the caller's business: FsyncInterval leaves the
// log dirty for the background syncer, and FsyncAlways callers wait on
// the store-wide group commit after releasing the shard lock.
func (s *DurableStore) appendLocked(sh *durableShard, rec *walRecord) (int64, error) {
	frame, err := appendRecord(sh.buf, rec)
	if err != nil {
		return 0, err
	}
	return s.writeFrameLocked(sh, frame, 0)
}

// writeFrameLocked appends one framed record to the log at lsn (0: the
// next one) and counts it toward the shard's compaction cadence.
func (s *DurableStore) writeFrameLocked(sh *durableShard, frame []byte, lsn uint64) (int64, error) {
	sh.buf = frame
	end, err := s.log.append(frame, sh.idx, lsn)
	if err != nil {
		return 0, err
	}
	sh.walRecords++
	s.recordsTotal.Add(1)
	return end, nil
}

// needsJournal is the one refusal of everything that reads or ships the
// journal (backup, the replication stream) on a journal-less store.
func (s *DurableStore) needsJournal(what string) error {
	if s.log != nil {
		return nil
	}
	return fmt.Errorf("%w: %s requires a durable store", ErrBadOp, what)
}

// journalLocked appends m's record to the log under the shard's lock and
// returns the group-commit wait target. A journal-less store writes
// nothing — and encodes nothing, which keeps its register path
// allocation-flat.
func (s *DurableStore) journalLocked(sh *durableShard, m *Mutation) (int64, error) {
	if s.log == nil {
		return 0, nil
	}
	return s.appendLocked(sh, recordFromMutation(m))
}

// mutate runs one lifecycle mutation through the event-sourced pipeline:
// precondition check, journal, apply, optional compaction, and — under
// FsyncAlways — a group-commit wait for the record's offset. This is the
// store's only write path; recovery replays the same records through the
// same apply.
//
// A failed group-commit fsync is returned to every cohort waiter whose
// record may sit in the unsynced tail. Their mutations remain applied in
// memory (journal-ahead state cannot be selectively rolled back for a
// cohort); callers must treat the operation as not durably acknowledged,
// and a subsequent successful sync or snapshot re-converges disk with
// memory.
func (s *DurableStore) mutate(m *Mutation) error {
	if s.replica.Load() {
		return ErrNotLeader
	}
	now := s.cfg.now().UnixNano()
	sh := s.shardFor(m.ID)
	sh.mu.Lock()
	// Validate before journaling so the WAL never carries a record the
	// live path rejected.
	if err := sh.tab.check(m, now); err != nil {
		sh.mu.Unlock()
		return err
	}
	off, err := s.journalLocked(sh, m)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	if _, err := sh.tab.apply(m, applyLive, now); err != nil {
		// check precedes apply under the same lock, so apply cannot fail;
		// surface it loudly if the invariant ever breaks.
		sh.mu.Unlock()
		return err
	}
	s.maybeSnapshotLocked(sh)
	sh.mu.Unlock()
	if s.log != nil && s.cfg.fsync == FsyncAlways {
		return s.gc.wait(s.log, off)
	}
	return nil
}

// AllocateID hands out a fresh region ID without registering anything —
// the hook derived-key registrations need, because their keys are derived
// from the ID before the region is cut. An allocated ID that never
// registers (a crash in between) is just a hole in the sequence; recovery
// only tracks IDs that reached the journal.
func (s *DurableStore) AllocateID() string {
	return fmt.Sprintf("r%d", s.nextID.Add(1))
}

// Register stores a registration and returns its region ID: the
// registration is journaled (and, under FsyncAlways, on disk) before the
// ID is returned, and an error means it could not be made durable under
// the fsync policy and must not be acknowledged to the client. A
// store-default TTL, when configured, is stamped here so the journaled
// expiry is exactly the one enforced. A derived registration already owns
// its ID (its keys were derived from it), so it registers under that ID
// instead of drawing a fresh one.
func (s *DurableStore) Register(reg *Registration) (string, error) {
	if s.closed.Load() {
		return "", ErrStoreClosed
	}
	reg = withDefaultExpiry(reg, s.cfg.ttl, s.cfg.now())
	id := reg.keyID
	if !reg.derived() || id == "" {
		id = s.AllocateID()
	}
	if err := s.mutate(&Mutation{Op: MutRegister, ID: id, Reg: reg}); err != nil {
		return "", err
	}
	return id, nil
}

// Lookup resolves a region ID. It returns ErrUnknownRegion (wrapped) for
// IDs that were never registered, were deregistered, or whose TTL has
// elapsed — expired registrations are unknown the instant their TTL
// elapses, whether or not the sweeper has reclaimed them yet.
func (s *DurableStore) Lookup(id string) (*Registration, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: missing region id", ErrBadOp)
	}
	now := s.cfg.now().UnixNano()
	sh := s.shardFor(id)
	sh.mu.RLock()
	reg := sh.tab.lookup(id, now)
	sh.mu.RUnlock()
	if reg == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRegion, id)
	}
	return reg, nil
}

// SetTrust updates the registration's access-control policy for one
// requester: the trust change is journaled before the policy mutates, so a
// recovered store grants exactly what the live one did.
func (s *DurableStore) SetTrust(id, requester string, toLevel int) error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	return s.mutate(&Mutation{Op: MutSetTrust, ID: id, Requester: requester, ToLevel: toLevel})
}

// Deregister removes a registration, ending the region's recoverability:
// once journaled, the registration's keys are gone for good and no
// requester can reduce the region again.
func (s *DurableStore) Deregister(id string) error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	if id == "" {
		return fmt.Errorf("%w: missing region id", ErrBadOp)
	}
	return s.mutate(&Mutation{Op: MutDeregister, ID: id})
}

// Touch renews a live registration's lease to ttl from now (ttl <= 0
// selects the store's default TTL; with no default either, the expiry
// bound is cleared) and returns the new expiry instant (zero when the
// bound was cleared). The renewal is journaled as a touch mutation through
// the same pipeline as every other lifecycle change, so recovery and
// replication replay it identically.
func (s *DurableStore) Touch(id string, ttl time.Duration) (time.Time, error) {
	if s.closed.Load() {
		return time.Time{}, ErrStoreClosed
	}
	if id == "" {
		return time.Time{}, fmt.Errorf("%w: missing region id", ErrBadOp)
	}
	if ttl <= 0 {
		ttl = s.cfg.ttl
	}
	var expiresAt int64
	if ttl > 0 {
		expiresAt = s.cfg.now().Add(ttl).UnixNano()
	}
	if err := s.mutate(&Mutation{Op: MutTouch, ID: id, ExpiresAt: expiresAt}); err != nil {
		return time.Time{}, err
	}
	if expiresAt == 0 {
		return time.Time{}, nil
	}
	return time.Unix(0, expiresAt).UTC(), nil
}

// Len reports the number of stored registrations, counting expired
// entries the sweeper has not yet reclaimed.
func (s *DurableStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.tab.regs)
		sh.mu.RUnlock()
	}
	return n
}

// SweepExpired journals an expire mutation for every registration whose
// TTL has elapsed, removes it, and reports how many it removed. It is the
// one way an elapsed lease leaves the store: the background sweeper calls
// it every GC interval, compaction runs the same per-shard sweep first,
// and operators can force a pass. A replica's pass is a no-op — its
// expire records arrive through the leader's stream. Expire records are
// not group-committed: nothing is acknowledged on their back, and one
// lost to a crash is harmless, because lazy expiry still refuses the
// lease and the next sweep journals it again.
func (s *DurableStore) SweepExpired() (int, error) {
	if s.closed.Load() {
		return 0, ErrStoreClosed
	}
	// A compaction the sweep makes due keeps its expire records on disk
	// for the followers caught up before it (see compactLocked).
	var keep uint64
	if s.log != nil {
		keep = s.log.lastLSN()
	}
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		k, err := s.sweepShardLocked(sh)
		if err == nil && k > 0 && s.compactionDue(sh) {
			_ = s.compactLocked(sh, keep)
		}
		sh.mu.Unlock()
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// sweepShardLocked journals and applies an expire mutation for each of
// the shard's registrations whose lease has elapsed, and reports how many
// it removed; on a replica it does nothing.
func (s *DurableStore) sweepShardLocked(sh *durableShard) (int, error) {
	if s.replica.Load() {
		return 0, nil
	}
	now := s.cfg.now().UnixNano()
	var ids []string
	for id, reg := range sh.tab.regs {
		if reg.expiredAt(now) {
			ids = append(ids, id)
		}
	}
	n := 0
	for _, id := range ids {
		m := &Mutation{Op: MutExpire, ID: id}
		if _, err := s.journalLocked(sh, m); err != nil {
			return n, err
		}
		if applied, _ := sh.tab.apply(m, applyLive, now); applied {
			n++
		}
	}
	return n, nil
}

// compactionDue reports whether the shard's WAL has accumulated
// snapshotEvery records since the last snapshot.
func (s *DurableStore) compactionDue(sh *durableShard) bool {
	return s.cfg.snapshotEvery > 0 && sh.walRecords >= s.cfg.snapshotEvery
}

// maybeSnapshotLocked compacts the shard when it is due.
func (s *DurableStore) maybeSnapshotLocked(sh *durableShard) {
	if s.compactionDue(sh) {
		// Best effort: a failed compaction leaves the WAL authoritative
		// and will be retried after the next append.
		_ = s.compactLocked(sh, s.log.lastLSN())
	}
}

// compactLocked is compaction's one path (maybeSnapshotLocked,
// SweepExpired, Snapshot): it sweeps the shard, journaling an expire for
// each elapsed lease, and then snapshots it, so a snapshot never holds a
// lease that had elapsed when it was cut and a follower receives every
// removal as a record. keep is the log's last LSN when the compaction
// began: reclaim deletes no record past it, so a follower caught up then
// still finds the expires on disk instead of a stream gap.
func (s *DurableStore) compactLocked(sh *durableShard, keep uint64) error {
	if _, err := s.sweepShardLocked(sh); err != nil {
		return err
	}
	return s.snapshotShardLocked(sh, keep)
}

// snapshotShardLocked writes the shard's registrations, exactly as the
// table holds them, to a fresh snapshot (temp file + rename, so the
// snapshot is atomic) covering the log's current last LSN — with the
// shard lock held, every record of the shard lies at or below it — then
// lets the log reclaim any segments no shard needs anymore and that hold
// nothing past keep. Ordering matters: the snapshot is durable before its
// log records become reclaimable, so a crash at any point leaves either
// the old snapshot+log or the new snapshot plus log records that recovery
// skips (they lie at or below the snapshot's LSN).
func (s *DurableStore) snapshotShardLocked(sh *durableShard, keep uint64) error {
	tmp := sh.snapPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("anonymizer: snapshot create: %w", err)
	}
	write := func(rec *walRecord) error {
		frame, err := appendRecord(sh.buf, rec)
		if err != nil {
			return err
		}
		sh.buf = frame
		_, err = f.Write(frame)
		return err
	}
	lsn := s.log.lastLSN()
	err = write(&walRecord{Type: recSnapHeader, NextID: s.nextID.Load(), LSN: lsn})
	for id, reg := range sh.tab.regs {
		if err != nil {
			break
		}
		err = write(registerRecord(id, reg))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("anonymizer: snapshot write: %w", err)
	}
	if s.hookBeforeSnapRename != nil {
		if err := s.hookBeforeSnapRename(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, sh.snapPath); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("anonymizer: snapshot rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		// The rename may not be durable: leave the WAL authoritative (it
		// still replays into exactly this state) and surface the failure —
		// Snapshot callers like backup must not report success over it.
		return err
	}
	if s.hookAfterSnapRename != nil {
		if err := s.hookAfterSnapRename(); err != nil {
			return err
		}
	}
	sh.walRecords = 0
	sh.snapLSN = lsn
	// The log never truncates in place; instead whole segments every
	// shard's snapshot covers are reclaimed.
	s.log.reclaim(sh.idx, keep)
	s.snapshots.Add(1)
	return nil
}

// syncClose fsyncs and closes f, returning the first failure: a file is
// durable only once both have succeeded.
func syncClose(f *os.File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed file is reachable after a
// machine crash. Filesystems that simply do not support directory syncs
// (EINVAL/ENOTSUP) are tolerated; a real failure (EIO, ...) is returned,
// because callers like Snapshot and backup must not report success over a
// rename the disk may not have.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("anonymizer: dir sync open: %w", err)
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return fmt.Errorf("anonymizer: dir sync %s: %w", dir, err)
	}
	if cerr != nil {
		return fmt.Errorf("anonymizer: dir sync close: %w", cerr)
	}
	return nil
}

// Snapshot forces a compaction of every shard, e.g. before a planned
// shutdown or backup; like every compaction it sweeps each shard first.
func (s *DurableStore) Snapshot() error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	if err := s.needsJournal("snapshot"); err != nil {
		return err
	}
	keep := s.log.lastLSN()
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := s.compactLocked(sh, keep)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync forces the unified log to disk (under FsyncAlways a safety net;
// the group commit already synced every acknowledged record).
func (s *DurableStore) Sync() error {
	if s.log == nil {
		return nil
	}
	return s.log.sync()
}

// WALStats is the store's journaling counters, as exposed on the admin
// listener's /metrics.
type WALStats struct {
	// Records counts mutation records journaled since open (live
	// mutations and ingested stream frames; recovery replay not
	// included).
	Records int64
	// Fsyncs counts log fsync calls of every kind: group-commit rounds,
	// interval syncs, rotation seals, and explicit Sync calls.
	Fsyncs int64
	// GroupCommitRounds counts leader fsyncs of the store-wide
	// fsync=always group commit; GroupCommitWaits counts the mutations
	// that entered it. The ratio waits/rounds is the amortization factor
	// group commit buys. GroupCommitLastCohort is the waiter count the
	// most recent round released.
	GroupCommitRounds     int64
	GroupCommitWaits      int64
	GroupCommitLastCohort int64
	// LogBytes and LogSegments are the unified log's live on-disk
	// footprint (reclaimed segments excluded).
	LogBytes    int64
	LogSegments int64
}

// WALStats snapshots the journaling counters (all zero without a journal).
func (s *DurableStore) WALStats() WALStats {
	if s.log == nil {
		return WALStats{}
	}
	bytes, segs := s.log.stats()
	return WALStats{
		Records:               s.recordsTotal.Load(),
		Fsyncs:                s.log.fsyncs.Load(),
		GroupCommitRounds:     s.gc.rounds.Load(),
		GroupCommitWaits:      s.gc.waits.Load(),
		GroupCommitLastCohort: s.gc.lastCohort.Load(),
		LogBytes:              bytes,
		LogSegments:           int64(segs),
	}
}

// Range calls fn for every live registration (expired-but-unswept entries
// are skipped, matching Lookup's view) until fn returns false. Iteration
// order is unspecified; fn must not call back into the store.
func (s *DurableStore) Range(fn func(id string, reg *Registration) bool) {
	now := s.cfg.now().UnixNano()
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, reg := range sh.tab.regs {
			if reg.expiredAt(now) {
				continue
			}
			if !fn(id, reg) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Recovery reports what OpenDurableStore found on disk.
func (s *DurableStore) Recovery() RecoveryStats { return s.stats }

// Snapshots returns the number of compactions performed since open (for
// tests and operational introspection).
func (s *DurableStore) Snapshots() int64 { return s.snapshots.Load() }

// Close stops background work (the GC sweeper and the sync loop) and
// flushes and closes the unified log. Operations issued after Close fail
// with ErrStoreClosed; the on-disk state reopens to exactly the
// acknowledged mutations.
func (s *DurableStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stop)
	s.bg.Wait()
	if s.log == nil {
		return nil
	}
	return s.log.close()
}
