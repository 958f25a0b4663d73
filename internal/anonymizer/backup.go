package anonymizer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// This file is the backup/restore half of the data-dir lifecycle toolkit:
// WriteBackup streams a live store (hot backup, the serve "backup" op),
// BackupDir streams a quiesced directory, and RestoreArchive seeds a fresh
// data directory from either. A lost data directory is a permanently
// unrecoverable set of cloaked regions — the keys ARE the reversibility —
// so backup shipping is not an optimization here; it is the only way the
// paper's reversibility guarantee survives the machine.

// countWriter counts bytes through to w.
type countWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer.
func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteBackup streams a consistent hot backup of the store to w as one
// CRC-framed archive and returns the byte count written. It first forces
// a compaction of every shard (Snapshot), so an fsync failure anywhere in
// the snapshot path fails the backup rather than shipping an unsynced
// image; it then copies each shard's snapshot under that shard's read
// lock and, last, the log range after the oldest of them (see
// writeFullArchive). The store stays live throughout, and the log stays
// pinned from the first snapshot copy to the log read, so no record a
// copied snapshot lacks can be reclaimed in between. The archive restores
// to the store's state at one LSN, the archive's watermark.
func (s *DurableStore) WriteBackup(w io.Writer) (int64, error) {
	if s.closed.Load() {
		return 0, ErrStoreClosed
	}
	if err := s.needsJournal("backup"); err != nil {
		return 0, err
	}
	if err := s.Snapshot(); err != nil {
		return 0, fmt.Errorf("anonymizer: backup quiesce: %w", err)
	}
	s.log.pin()
	defer s.log.unpin()
	snaps := make([][]byte, len(s.shards))
	lsns := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		snap, err := os.ReadFile(sh.snapPath)
		snaps[i], lsns[i] = snap, sh.snapLSN
		sh.mu.RUnlock()
		if err != nil {
			return 0, fmt.Errorf("anonymizer: backup snapshot read: %w", err)
		}
	}
	return writeFullArchive(w, s.log, s.nextID.Load(), snaps, lsns)
}

// writeFullArchive writes a full archive: each shard's snapshot image (nil:
// none) with the LSN it covers, then ONE log entry holding every record
// after the oldest of those LSNs, its file record naming the last LSN —
// the archive's watermark. The range is read after the snapshots were, so
// it reaches every LSN a snapshot covers; a restore lands it verbatim and
// recovery skips what each shard's snapshot already holds.
func writeFullArchive(w io.Writer, lg *storeLog, nextID uint64, snaps [][]byte, lsns []uint64) (int64, error) {
	raw, _, last, err := lg.tail(lsns)
	if err != nil {
		return 0, fmt.Errorf("anonymizer: backup log read: %w", err)
	}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(len(snaps), nextID, nil)
	for i, snap := range snaps {
		if snap != nil {
			aw.file(shardSnapName(i), lsns[i], snap)
		}
	}
	aw.file(archiveLogName, last, raw)
	return cw.n, aw.finish()
}

// BackupDir streams a closed data directory to w as one CRC-framed archive
// and returns the byte count written. The directory must not be open in a
// live store (stop the server, or use WriteBackup / the serve backup op
// for hot backups): BackupDir reads the files as they are, and a
// concurrent writer could tear them mid-record.
func BackupDir(w io.Writer, dir string) (int64, error) {
	if err := readMeta(dir); err != nil {
		return 0, err
	}
	snaps, lsns, err := readSnapshots(dir)
	if err != nil {
		return 0, err
	}
	lg, err := openLogReader(dir)
	if err != nil {
		return 0, err
	}
	defer func() { _ = lg.close() }()
	return writeFullArchive(w, lg, 0, snaps, lsns)
}

// readSnapshots reads each shard's snapshot image of a closed directory
// (nil: the shard never compacted) and the LSN it covers. With the
// offline log reader (openLogReader) it is how cold backup reads a
// directory without opening a live store.
func readSnapshots(dir string) ([][]byte, []uint64, error) {
	snaps, lsns := make([][]byte, DefaultShards), make([]uint64, DefaultShards)
	for i := range snaps {
		raw, err := os.ReadFile(filepath.Join(dir, shardSnapName(i)))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("anonymizer: reading snapshot: %w", err)
		}
		if _, err := readRecords(bytes.NewReader(raw), func(rec *walRecord) error {
			if rec.Type == recSnapHeader {
				lsns[i] = rec.LSN
			}
			return nil
		}); err != nil {
			if errors.Is(err, errTornTail) {
				err = fmt.Errorf("%w: truncated snapshot %s", ErrCorruptLog, shardSnapName(i))
			}
			return nil, nil, err
		}
		snaps[i] = raw
	}
	return snaps, lsns, nil
}

// --- Incremental backup -------------------------------------------------
//
// An incremental backup (a delta) is the stream abstraction applied to
// backup: the archive carries only the log records after an LSN taken
// from an earlier (full or incremental) backup. It is also the
// replication stream: a follower's poll is `backup since=<its
// watermark>`, and it lands the delta with ApplyDelta, the same path
// ApplyIncremental takes for a closed directory.

// IncrementalStats describes what an incremental backup or apply moved.
type IncrementalStats struct {
	// Frames is the number of records the delta carries.
	Frames int
	// Applied is the number of records ApplyDelta applied (records the
	// store already held are skipped as duplicates).
	Applied int
	// Since is the LSN the delta starts after; End is the LSN it reaches.
	Since, End uint64
}

// WriteIncrementalBackup streams the store's records after since — the
// watermark of an earlier backup — to w as one incremental archive, and
// returns the bytes written plus the delta's coverage. The store stays
// live and is NOT quiesced (a compaction here would fold the very records
// being shipped into a snapshot). A watermark older than the oldest
// record still on disk reports ErrStreamGap: the caller must take a full
// backup instead. The bytes depend only on the log range, so two stores
// holding the same records after since write the same delta.
func (s *DurableStore) WriteIncrementalBackup(w io.Writer, since uint64) (int64, *IncrementalStats, error) {
	if s.closed.Load() {
		return 0, nil, ErrStoreClosed
	}
	if err := s.needsJournal("replication"); err != nil {
		return 0, nil, err
	}
	return writeDelta(w, s.log, since)
}

// IncrementalBackupDir is WriteIncrementalBackup for a closed data
// directory: it reads the log read-only and ships the records after
// since. The directory must not be open in a live store.
func IncrementalBackupDir(w io.Writer, dir string, since uint64) (int64, *IncrementalStats, error) {
	if err := readMeta(dir); err != nil {
		return 0, nil, err
	}
	lg, err := openLogReader(dir)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = lg.close() }()
	return writeDelta(w, lg, since)
}

// writeDelta writes the incremental archive of lg's records after since:
// a header naming since, then one log entry whose file record names the
// last LSN. The header's ID-allocator field stays 0: the records carry
// every ID they issue (ingest raises the allocator past each).
func writeDelta(w io.Writer, lg *storeLog, since uint64) (int64, *IncrementalStats, error) {
	raw, last, err := lg.read(since)
	if err != nil {
		return 0, nil, err
	}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(DefaultShards, 0, &since)
	aw.file(archiveLogName, last, raw)
	return cw.n, &IncrementalStats{Frames: int(last - since), Since: since, End: last}, aw.finish()
}

// incrementalSink feeds a delta archive into an open store (ApplyDelta).
type incrementalSink struct {
	st    *DurableStore
	buf   bytes.Buffer
	stats *IncrementalStats
}

// Header implements archiveSink. The delta must start at or before the
// store's end, or the log would have a hole.
func (a *incrementalSink) Header(_ int, _ uint64, since *uint64) error {
	if since == nil {
		return badArchive("not an incremental archive (no since watermark); use restore for full archives")
	}
	have := a.st.Watermark()
	if *since > have {
		return fmt.Errorf("%w: archive starts after LSN %d, directory ends at %d",
			ErrStreamGap, *since, have)
	}
	a.stats.Since, a.stats.End = *since, have
	return nil
}

// File implements archiveSink.
func (a *incrementalSink) File(name string, _ uint64) error {
	if name != archiveLogName {
		return badArchive("%q is not an incremental-archive file", name)
	}
	a.buf.Reset()
	return nil
}

// Data implements archiveSink.
func (a *incrementalSink) Data(chunk []byte) error {
	a.buf.Write(chunk)
	return nil
}

// CloseFile implements archiveSink: the delta is complete and
// checksum-verified; ingest it through the shared stream pipeline, which
// skips the records the store already holds.
func (a *incrementalSink) CloseFile() error {
	lsn := a.stats.Since
	_, err := readFrames(bytes.NewReader(a.buf.Bytes()), func(payload []byte) error {
		lsn++
		a.stats.Frames++
		applied, err := a.st.ingest(lsn, payload)
		if err != nil {
			return err
		}
		if applied {
			a.stats.Applied++
		}
		a.stats.End = max(a.stats.End, lsn)
		return nil
	})
	if errors.Is(err, errTornTail) {
		return badArchive("torn delta")
	}
	return err
}

// End implements archiveSink.
func (a *incrementalSink) End(int) error { return nil }

// ApplyDelta lands an incremental archive on the open store: every
// record goes through the same journal+apply pipeline recovery uses, at
// the LSN the delta assigns it, so the store's log stays byte-identical
// to the source's. The delta's since watermark must not lie past the
// store's end (the log would have a hole: ErrStreamGap); records the
// store already holds are skipped, so overlapping deltas are safe to
// apply in order. A replication follower applies each poll's delta this
// way; the caller syncs when the records must be durable.
func (s *DurableStore) ApplyDelta(r io.Reader) (*IncrementalStats, error) {
	if s.closed.Load() {
		return nil, ErrStoreClosed
	}
	if err := s.needsJournal("replication"); err != nil {
		return nil, err
	}
	sink := &incrementalSink{st: s, stats: &IncrementalStats{}}
	if err := readArchive(r, sink); err != nil {
		return nil, err
	}
	return sink.stats, nil
}

// ApplyIncremental extends a closed data directory with an incremental
// archive (ApplyDelta on the directory, synced), so a full restore plus
// its incrementals reproduces the source exactly.
//
// The store is opened as a replica for the duration of the apply: like
// a follower, the apply must be expiry-passive — a registration whose
// TTL looks elapsed NOW may be renewed by a touch record later in this
// very delta, so no sweep (the sweeper's or a mid-apply compaction's)
// may expire it. Opening journals nothing either; the sweep of the
// leader that next opens the directory journals what stays elapsed.
func ApplyIncremental(r io.Reader, dir string, opts ...DurabilityOption) (*IncrementalStats, error) {
	st, err := OpenDurableStore(dir,
		append(append([]DurabilityOption{}, opts...), WithReplica())...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	stats, err := st.ApplyDelta(r)
	if err != nil {
		return nil, err
	}
	if err := st.Sync(); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return stats, nil
}

// ArchiveWatermark reads an archive (full or incremental) just far
// enough to report the LSN it reaches — the position a later `backup
// -since` continues from. The whole archive is scanned and
// checksum-verified in the process. Archives written before LSNs existed
// (per-shard tails, no log entry) have no watermark and are refused.
func ArchiveWatermark(r io.Reader) (uint64, error) {
	sink := &watermarkSink{}
	if err := readArchive(r, sink); err != nil {
		return 0, err
	}
	if !sink.found {
		return 0, badArchive("no %q entry: the archive predates log sequence numbers", archiveLogName)
	}
	return sink.lsn, nil
}

// watermarkSink extracts the log entry's last LSN.
type watermarkSink struct {
	lsn   uint64
	found bool
}

func (s *watermarkSink) Header(int, uint64, *uint64) error { return nil }

func (s *watermarkSink) File(name string, lsn uint64) error {
	if name == archiveLogName {
		s.lsn, s.found = lsn, true
	}
	return nil
}

func (s *watermarkSink) Data([]byte) error { return nil }
func (s *watermarkSink) CloseFile() error  { return nil }
func (s *watermarkSink) End(int) error     { return nil }

// shardSnapName returns shard i's snapshot file name — in a data directory
// and in an archive alike.
func shardSnapName(i int) string { return fmt.Sprintf("shard-%04d.snap", i) }

// archiveLogName is the archive entry holding the log range.
const archiveLogName = "log"

// archiveShardEntry matches a full archive's per-shard entries, capturing
// the shard index and the kind: snap, a snapshot image; wal, a per-shard
// record tail, which only archives written before LSNs existed carry.
var archiveShardEntry = regexp.MustCompile(`^shard-([0-9]{4})\.(wal|snap)$`)

// restoreSink materializes a full archive as a current-layout data
// directory under a staging path: snapshots are re-striped to
// DefaultShards (landSnap; verbatim when the archive has that many
// already), the log entry lands verbatim in one segment named by its
// first LSN, and META is written by the sink itself.
//
// Archives written before LSNs existed carry per-shard record tails
// instead of a log entry, and snapshots whose headers name no LSN (so they
// cover LSN 0). Their tails land verbatim, in archive order, in one
// segment starting at LSN 1 — no conversion: every tail record follows
// its shard's snapshot, each shard's tail keeps its own order, and
// records of different shards concern different registrations, which
// commute under regTable.apply (each mutation reads and writes only its
// own ID's entry, and the ID allocator takes a maximum).
type restoreSink struct {
	dir    string
	shards int // the archive's stripe count
	seen   map[string]bool
	seg    *os.File // the staged segment the log lands in
	logged bool     // a log entry landed (no per-shard tail may follow)

	// The entry in flight, buffered until its checksum has been verified
	// (CloseFile) and only then examined; idx is a per-stripe entry's
	// stripe.
	name string
	idx  int
	lsn  uint64
	buf  bytes.Buffer
}

// Header implements archiveSink. Incremental archives are refused: a
// delta cannot seed a directory, only extend one (ApplyDelta).
func (r *restoreSink) Header(shards int, _ uint64, since *uint64) error {
	if since != nil {
		return badArchive("incremental archive; apply it to an existing directory with restore -apply")
	}
	r.shards = shards
	return nil
}

// File implements archiveSink, pinning the exact entry naming so an
// archive cannot plant strays. The shard index must lie inside the
// header's shard count: state the restored store would never read is
// worse than a stray — it is key material sitting invisibly in the data
// dir.
func (r *restoreSink) File(name string, lsn uint64) error {
	if r.seen[name] {
		return badArchive("duplicate file %q", name)
	}
	r.seen[name] = true
	r.name, r.lsn = name, lsn
	r.buf.Reset()
	if name == metaFile || name == archiveLogName {
		return nil
	}
	m := archiveShardEntry.FindStringSubmatch(name)
	if m == nil {
		return badArchive("%q is not a durable-store file", name)
	}
	idx, err := strconv.Atoi(m[1])
	if err != nil || idx >= r.shards {
		return badArchive("%q is outside the archive's %d shards", name, r.shards)
	}
	r.idx = idx
	return nil
}

// Data implements archiveSink.
func (r *restoreSink) Data(chunk []byte) error {
	r.buf.Write(chunk)
	return nil
}

// CloseFile implements archiveSink: the entry's content is complete and
// checksum-verified.
func (r *restoreSink) CloseFile() error {
	switch {
	case strings.HasSuffix(r.name, ".snap"):
		return r.landSnap()
	case r.name == metaFile:
		// Archives from binaries that kept a per-shard directory layout
		// carry that directory's META. Its version says nothing about the
		// layout staged here; only its shard count is checked.
		var m storeMeta
		if err := json.Unmarshal(r.buf.Bytes(), &m); err != nil {
			return badArchive("archived %s: %v", metaFile, err)
		}
		if m.Shards != r.shards {
			return badArchive("%s shard count %d disagrees with archive header %d",
				metaFile, m.Shards, r.shards)
		}
		return nil
	case r.name == archiveLogName:
		return r.landLog()
	default:
		return r.landTail()
	}
}

// landSnap splits one archived stripe's snapshot over the
// DefaultShards/r.shards stripes it maps onto: shardIndex is a hash mask,
// so new stripe t draws only from old stripe t&(r.shards-1). Each new
// snapshot gets the archived header frame verbatim — the LSN floor and the
// allocator position, so recovery skips exactly the log records the old
// stripe's snapshot covered — followed by the register frames whose IDs
// hash to it, also verbatim and in archive order. An archive cut at
// DefaultShards stripes thus restores its snapshots byte for byte.
func (r *restoreSink) landSnap() error {
	raw := r.buf.Bytes()
	var stripes [DefaultShards][]byte
	off := 0
	_, err := readFrames(bytes.NewReader(raw), func(payload []byte) error {
		frame := raw[off : off+walHeaderSize+len(payload)]
		off += len(frame)
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return badArchive("%s: %v", r.name, err)
		}
		switch {
		case rec.Type == recSnapHeader && off == len(frame):
			for t := r.idx; t < DefaultShards; t += r.shards {
				stripes[t] = append(stripes[t], frame...)
			}
		case rec.Type == recRegister && int(shardIndex(rec.ID, uint32(r.shards-1))) == r.idx:
			t := shardIndex(rec.ID, shardMask)
			stripes[t] = append(stripes[t], frame...)
		default:
			return badArchive("%s: unexpected %q record for %q", r.name, rec.Type, rec.ID)
		}
		return nil
	})
	if errors.Is(err, errTornTail) {
		return badArchive("%s: damaged record after %d intact bytes", r.name, off)
	}
	if err != nil {
		return err
	}
	for t := r.idx; t < DefaultShards; t += r.shards {
		if err := writeNewFile(filepath.Join(r.dir, shardSnapName(t)), stripes[t]); err != nil {
			return err
		}
	}
	return nil
}

// writeNewFile creates path, which must not exist, and syncs data into it.
func writeNewFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("anonymizer: restore create: %w", err)
	}
	_, err = f.Write(data)
	if serr := syncClose(f); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("anonymizer: restore write: %w", err)
	}
	return nil
}

// stage writes frames to the staged segment, creating it with the given
// base LSN first if this is the archive's first record range.
func (r *restoreSink) stage(base uint64, frames []byte) error {
	if r.seg == nil {
		f, err := os.OpenFile(filepath.Join(r.dir, segName(base)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
		if err != nil {
			return fmt.Errorf("anonymizer: restore create: %w", err)
		}
		r.seg = f
	}
	if _, err := r.seg.Write(frames); err != nil {
		return fmt.Errorf("anonymizer: restore write: %w", err)
	}
	return nil
}

// landLog stages the log entry: records through the entry's LSN, so the
// segment's base is that LSN minus the record count plus one (an empty
// range at LSN E stages an empty segment with base E+1). Every frame must
// be whole — the count fixes every record's LSN.
func (r *restoreSink) landLog() error {
	if r.seg != nil {
		return badArchive("log entry beside per-shard record tails")
	}
	var n uint64
	if _, err := readFrames(bytes.NewReader(r.buf.Bytes()), func([]byte) error { n++; return nil }); err != nil {
		return badArchive("log entry: damaged record after %d intact ones", n)
	}
	if n > r.lsn {
		return badArchive("log entry holds %d records but ends at LSN %d", n, r.lsn)
	}
	r.logged = true
	return r.stage(r.lsn-n+1, r.buf.Bytes())
}

// landTail appends a per-shard record tail of an archive written before
// LSNs existed to the staged segment (base LSN 1; see restoreSink). Only
// whole, CRC-clean frames are written: a tail whose LAST frame is torn (a
// cold backup of a crashed per-shard directory copied the file as it was)
// restores to its intact prefix, the bytes recovery would have truncated;
// damage with more data behind it is corruption, and a torn frame
// mid-segment would make the store unopenable, so it fails the archive.
func (r *restoreSink) landTail() error {
	if r.logged {
		return badArchive("per-shard record tail %s beside a log entry", r.name)
	}
	tail := r.buf.Bytes()
	intact, err := readFrames(bytes.NewReader(tail), func([]byte) error { return nil })
	if err != nil && !errors.Is(err, errTornTail) {
		return err
	}
	if rest := tail[intact:]; len(rest) >= walHeaderSize {
		// The damaged frame's declared extent: reaching the end of the
		// tail makes it the torn last write; stopping short of it means
		// intact-looking data follows a bad frame.
		if n := int64(binary.LittleEndian.Uint32(rest[0:4])); walHeaderSize+n < int64(len(rest)) {
			return badArchive("%s: damaged record at offset %d with %d bytes after it",
				r.name, intact, int64(len(rest))-walHeaderSize-n)
		}
	}
	return r.stage(1, tail[:intact])
}

// End implements archiveSink: seal the staged segment (an archive with no
// record range at all stages an empty log at LSN 0) and write the header
// that makes the staging directory a data directory.
func (r *restoreSink) End(int) error {
	if err := r.stage(1, nil); err != nil {
		return err
	}
	err := syncClose(r.seg)
	r.seg = nil
	if err != nil {
		return fmt.Errorf("anonymizer: restore sync: %w", err)
	}
	if err := writeMeta(r.dir); err != nil {
		return err
	}
	return syncDir(r.dir)
}

// close releases the segment a failed restore left open (after a
// successful one there is none).
func (r *restoreSink) close() {
	if r.seg != nil {
		_ = r.seg.Close()
	}
}

// RestoreArchive seeds a fresh durable data directory at dir from the
// archive in r, always in the current layout (storeMetaVersion) whatever
// binary took the archive — so the first OpenDurableStore of the result
// is an ordinary recovery, with nothing to convert and nothing to
// truncate. The archive is staged into a sibling temp directory and
// verified completely — framing, per-file checksums, file naming, every
// record's frame, the end record — before a single rename publishes it as
// dir, so a truncated or corrupted archive fails cleanly without ever
// creating dir, and a crash mid-restore leaves only a removable staging
// directory. dir must not already exist: restoring over live state is
// refused, not merged.
func RestoreArchive(r io.Reader, dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return fmt.Errorf("anonymizer: restore target %s already exists", dir)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("anonymizer: restore target: %w", err)
	}
	tmp := dir + ".restore-tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("anonymizer: clearing stale staging dir: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o700); err != nil {
		return fmt.Errorf("anonymizer: restore staging dir: %w", err)
	}
	sink := &restoreSink{dir: tmp, seen: make(map[string]bool)}
	err := readArchive(r, sink)
	sink.close()
	if err != nil {
		_ = os.RemoveAll(tmp)
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		_ = os.RemoveAll(tmp)
		return fmt.Errorf("anonymizer: restore publish: %w", err)
	}
	return syncDir(filepath.Dir(dir))
}
