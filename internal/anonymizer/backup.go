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
)

// This file is the backup/restore half of the data-dir lifecycle toolkit:
// WriteBackup streams a live store (hot backup, the serve "backup" op),
// BackupDir streams a quiesced directory, and RestoreArchive seeds a fresh
// data directory from either. Reshard (reshard.go) is the third lifecycle
// operation. A lost data directory is a permanently unrecoverable set of
// cloaked regions — the keys ARE the reversibility — so backup shipping is
// not an optimization here; it is the only way the paper's reversibility
// guarantee survives the machine.

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
// CRC-framed archive and returns the byte count written. An archive is
// layout-independent: the header names the shard count, and each shard
// contributes its snapshot plus its post-snapshot record tail (the
// shard-NNNN.snap / shard-NNNN.wal entries), which RestoreArchive lands
// in whatever layout the restoring binary writes. It first forces a
// compaction of every shard (Snapshot), so an fsync failure anywhere in
// the snapshot path fails the backup rather than shipping an unsynced
// image; it then copies each shard's snapshot and gathers its tail from
// the unified log under that shard's read lock, so every shard in the
// archive is a consistent prefix of its mutation stream — exactly the
// guarantee crash recovery relies on. The store stays live throughout:
// mutations landing while the backup streams are captured per shard up to
// the moment its lock is taken.
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
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(len(s.shards), s.nextID.Load(), nil)
	for i, sh := range s.shards {
		if aw.err != nil {
			break
		}
		sh.mu.RLock()
		seq := sh.streamSeq
		snap, serr := os.ReadFile(sh.snapPath)
		wal, werr := s.shardTailLocked(sh)
		sh.mu.RUnlock()
		if serr != nil {
			return cw.n, fmt.Errorf("anonymizer: backup snapshot read: %w", serr)
		}
		if werr != nil {
			return cw.n, fmt.Errorf("anonymizer: backup wal read: %w", werr)
		}
		// Each shard file record carries the shard's stream offset at copy
		// time, so the archive's watermark — the position an incremental
		// backup can continue from — is readable from the archive itself.
		aw.file(shardSnapName(i), seq, snap)
		aw.file(archiveTailName(i), seq, wal)
	}
	return cw.n, aw.finish()
}

// shardTailLocked copies the shard's post-snapshot records out of the
// unified log as contiguous frame bytes (the caller holds the shard lock,
// which pins the entries' segments against reclaim). These are the exact
// frames the shard appended, so a restored store serves the same stream
// bytes to followers as the source did.
func (s *DurableStore) shardTailLocked(sh *durableShard) ([]byte, error) {
	if len(sh.entries) == 0 {
		return nil, nil
	}
	var total int64
	for _, e := range sh.entries {
		total += int64(e.n)
	}
	buf := make([]byte, total)
	off := 0
	for _, e := range sh.entries {
		if _, err := e.seg.f.ReadAt(buf[off:off+int(e.n)], e.off); err != nil {
			return nil, err
		}
		off += int(e.n)
	}
	return buf, nil
}

// BackupDir streams a closed data directory to w as one CRC-framed archive
// and returns the byte count written: the unified log is demultiplexed
// into the per-shard tails an archive carries. The directory must not be
// open in a live store (stop the server, or use WriteBackup / the serve
// backup op for hot backups): BackupDir reads the files as they are, and a
// concurrent writer could tear them mid-record.
func BackupDir(w io.Writer, dir string) (int64, error) {
	shards, err := readMeta(dir)
	if err != nil {
		return 0, err
	}
	streams, _, err := readDirStreams(dir, shards)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(shards, 0, nil)
	var buf []byte
	for i, st := range streams {
		var wal bytes.Buffer
		for _, fr := range st.frames {
			if buf, err = appendFrame(buf, fr.payload); err != nil {
				return cw.n, err
			}
			wal.Write(buf)
		}
		seq := st.end()
		if st.snap != nil {
			aw.file(shardSnapName(i), seq, st.snap)
		}
		if wal.Len() > 0 {
			aw.file(archiveTailName(i), seq, wal.Bytes())
		}
		if aw.err != nil {
			break
		}
	}
	return cw.n, aw.finish()
}

// dirFrame is one post-snapshot record of a closed directory's shard
// stream: its offset and payload bytes.
type dirFrame struct {
	seq     uint64
	payload []byte
}

// dirShardStream is one shard's logical stream as read from a closed
// directory: the snapshot image plus the unified-log records after it.
type dirShardStream struct {
	snap    []byte
	snapSeq uint64
	frames  []dirFrame
}

// end returns the stream position the shard reaches.
func (st *dirShardStream) end() uint64 {
	if n := len(st.frames); n > 0 {
		return st.frames[n-1].seq
	}
	return st.snapSeq
}

// readDirStreams demultiplexes a closed directory into its per-shard
// logical streams. It is the one offline reader of a data directory: cold
// backup, incremental backup and reshard all consume shard streams through
// it without opening a live store. It also returns the torn tail bytes
// skipped. The damage rules match recovery read-only: a torn tail is
// tolerated only in the last non-empty segment; damage anywhere else is
// corruption.
func readDirStreams(dir string, shards int) ([]dirShardStream, int64, error) {
	out := make([]dirShardStream, shards)
	for i := range out {
		snap, err := os.ReadFile(filepath.Join(dir, shardSnapName(i)))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("anonymizer: reading snapshot: %w", err)
		}
		out[i].snap = snap
		if _, err := readRecords(bytes.NewReader(snap), func(rec *walRecord) error {
			if rec.Type == recSnapHeader {
				out[i].snapSeq = rec.StreamSeq
			}
			return nil
		}); err != nil {
			if errors.Is(err, errTornTail) {
				err = fmt.Errorf("%w: truncated snapshot %s", ErrCorruptLog, shardSnapName(i))
			}
			return nil, 0, err
		}
	}
	names, _, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	raws := make([][]byte, len(names))
	lastData := -1
	for i, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, fmt.Errorf("anonymizer: reading log segment: %w", err)
		}
		raws[i] = raw
		if len(raw) > 0 {
			lastData = i
		}
	}
	mask := uint32(shards - 1)
	runs := make([]uint64, shards)
	for i := range out {
		runs[i] = out[i].snapSeq
	}
	var truncated int64
	for i, raw := range raws {
		intact, rerr := readFrames(bytes.NewReader(raw), func(payload []byte) error {
			var rec walRecord
			if jerr := json.Unmarshal(payload, &rec); jerr != nil {
				return fmt.Errorf("%w: %v", ErrCorruptLog, jerr)
			}
			if rec.Type == recSnapHeader {
				return fmt.Errorf("%w: unexpected %q record in log", ErrCorruptLog, rec.Type)
			}
			shard := int(shardIndex(rec.ID, mask))
			seq := nextStreamSeq(runs[shard], rec.Seq)
			runs[shard] = seq
			if seq <= out[shard].snapSeq {
				return nil // folded into the snapshot already
			}
			out[shard].frames = append(out[shard].frames,
				dirFrame{seq: seq, payload: append([]byte(nil), payload...)})
			return nil
		})
		if rerr != nil && !errors.Is(rerr, errTornTail) {
			return nil, 0, fmt.Errorf("anonymizer: scanning %s: %w", names[i], rerr)
		}
		if errors.Is(rerr, errTornTail) || intact < int64(len(raw)) {
			if i != lastData {
				return nil, 0, fmt.Errorf("%w: damaged non-final log segment %s", ErrCorruptLog, names[i])
			}
			truncated += int64(len(raw)) - intact
		}
	}
	return out, truncated, nil
}

// --- Incremental backup -------------------------------------------------
//
// An incremental backup is the stream abstraction applied to backup: the
// archive carries, per shard, only the mutation records after a
// watermark taken from an earlier (full or incremental) backup. Shipping
// one is exactly shipping the replication stream to a file — the delta
// files hold the same CRC-framed record bytes TailFrom serves to
// followers, and ApplyIncremental feeds them through the same
// IngestFrame pipeline a follower uses.

// shardDeltaName returns shard i's delta file name inside an incremental
// archive.
func shardDeltaName(i int) string { return fmt.Sprintf("shard-%04d.delta", i) }

// deltaFileName matches incremental archive entries, capturing the shard
// index.
var deltaFileName = regexp.MustCompile(`^shard-([0-9]{4,})\.delta$`)

// IncrementalStats describes what an incremental backup or apply moved.
type IncrementalStats struct {
	// Shards is the store's shard count.
	Shards int
	// Frames is the number of stream records the delta carries.
	Frames int
	// Applied is the number of records ApplyIncremental applied (frames
	// the directory already held are skipped as duplicates).
	Applied int
	// Since is the watermark the delta starts after; End is the position
	// it reaches.
	Since, End Watermark
}

// WriteIncrementalBackup streams the store's mutation records after
// since — the watermark of an earlier backup — to w as one incremental
// archive, and returns the bytes written plus the delta's coverage. The
// store stays live and is NOT quiesced (a compaction here would fold the
// very records being shipped into a snapshot); each shard's tail is read
// under its lock via the same TailFrom path replication uses. A
// watermark older than a shard's last compaction reports ErrStreamGap:
// the records are no longer individually addressable and the caller must
// take a full backup instead.
func (s *DurableStore) WriteIncrementalBackup(w io.Writer, since Watermark) (int64, *IncrementalStats, error) {
	if s.closed.Load() {
		return 0, nil, ErrStoreClosed
	}
	if err := s.needsJournal("replication"); err != nil {
		return 0, nil, err
	}
	if len(since) != len(s.shards) {
		return 0, nil, fmt.Errorf("%w: watermark of %d elements for %d shards",
			ErrBadOp, len(since), len(s.shards))
	}
	stats := &IncrementalStats{Shards: len(s.shards), Since: since.Clone(), End: make(Watermark, len(s.shards))}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(len(s.shards), s.nextID.Load(), since.Clone())
	var buf []byte
	for i := range s.shards {
		if aw.err != nil {
			break
		}
		frames, end, err := s.TailFrom(i, since[i], 0)
		if err != nil {
			return cw.n, nil, err
		}
		var delta bytes.Buffer
		for _, f := range frames {
			if buf, err = appendFrame(buf, f.Rec); err != nil {
				return cw.n, nil, err
			}
			delta.Write(buf)
		}
		stats.Frames += len(frames)
		stats.End[i] = end
		aw.file(shardDeltaName(i), end, delta.Bytes())
	}
	return cw.n, stats, aw.finish()
}

// IncrementalBackupDir is WriteIncrementalBackup for a closed data
// directory: it scans each shard's files read-only and ships the records
// after since. The directory must not be open in a live store.
func IncrementalBackupDir(w io.Writer, dir string, since Watermark) (int64, *IncrementalStats, error) {
	shards, err := readMeta(dir)
	if err != nil {
		return 0, nil, err
	}
	if len(since) != shards {
		return 0, nil, fmt.Errorf("%w: watermark of %d elements for %d shards",
			ErrBadOp, len(since), shards)
	}
	streams, _, err := readDirStreams(dir, shards)
	if err != nil {
		return 0, nil, err
	}
	stats := &IncrementalStats{Shards: shards, Since: since.Clone(), End: make(Watermark, shards)}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(shards, 0, since.Clone())
	var buf []byte
	for i, st := range streams {
		if aw.err != nil {
			break
		}
		if since[i] < st.snapSeq {
			return cw.n, nil, fmt.Errorf("%w: shard %d offset %d, oldest streamable %d — take a full backup",
				ErrStreamGap, i, since[i], st.snapSeq)
		}
		var delta bytes.Buffer
		for _, fr := range st.frames {
			if fr.seq <= since[i] {
				continue
			}
			if buf, err = appendFrame(buf, fr.payload); err != nil {
				return cw.n, nil, err
			}
			delta.Write(buf)
			stats.Frames++
		}
		stats.End[i] = st.end()
		aw.file(shardDeltaName(i), stats.End[i], delta.Bytes())
	}
	return cw.n, stats, aw.finish()
}

// incrementalSink feeds a delta archive into an open store.
type incrementalSink struct {
	st    *DurableStore
	since Watermark
	shard int
	buf   bytes.Buffer
	stats *IncrementalStats
}

// Header implements archiveSink.
func (a *incrementalSink) Header(shards int, _ uint64, since []uint64) error {
	if since == nil {
		return badArchive("not an incremental archive (no since watermark); use restore for full archives")
	}
	if shards != a.st.ShardCount() {
		return badArchive("archive spans %d shards, directory has %d", shards, a.st.ShardCount())
	}
	a.since = since
	a.stats.Shards = shards
	a.stats.Since = Watermark(since).Clone()
	a.stats.End = a.st.Watermark()
	return nil
}

// File implements archiveSink.
func (a *incrementalSink) File(name string, _ uint64) error {
	m := deltaFileName.FindStringSubmatch(name)
	if m == nil {
		return badArchive("%q is not an incremental-archive file", name)
	}
	idx, err := strconv.Atoi(m[1])
	if err != nil || idx >= a.st.ShardCount() {
		return badArchive("%q is outside the archive's %d shards", name, a.st.ShardCount())
	}
	a.shard = idx
	a.buf.Reset()
	return nil
}

// Data implements archiveSink.
func (a *incrementalSink) Data(chunk []byte) error {
	a.buf.Write(chunk)
	return nil
}

// CloseFile implements archiveSink: the shard's delta is complete and
// checksum-verified; ingest it through the shared stream pipeline.
func (a *incrementalSink) CloseFile() error {
	seq := a.since[a.shard]
	have := a.stats.End[a.shard]
	_, err := readFrames(bytes.NewReader(a.buf.Bytes()), func(payload []byte) error {
		var hdr struct {
			Seq uint64 `json:"seq"`
		}
		if jerr := json.Unmarshal(payload, &hdr); jerr != nil {
			return fmt.Errorf("%w: %v", ErrCorruptLog, jerr)
		}
		seq = nextStreamSeq(seq, hdr.Seq)
		a.stats.Frames++
		if seq <= have {
			return nil // the directory already holds this record
		}
		applied, err := a.st.IngestFrame(StreamFrame{
			Shard: a.shard, Seq: seq, Rec: json.RawMessage(payload),
		})
		if err != nil {
			return err
		}
		if applied {
			a.stats.Applied++
		}
		if seq > a.stats.End[a.shard] {
			a.stats.End[a.shard] = seq
		}
		return nil
	})
	if errors.Is(err, errTornTail) {
		return badArchive("torn delta for shard %d", a.shard)
	}
	return err
}

// End implements archiveSink.
func (a *incrementalSink) End(int) error { return nil }

// ApplyIncremental extends a closed data directory with an incremental
// archive: every delta record lands through the same journal+apply
// pipeline (IngestFrame) a replication follower uses, so a full restore
// plus its incrementals reproduces the source exactly. The archive's
// since watermark must not lie ahead of the directory's position (the
// stream would have a hole); records the directory already holds are
// skipped, so overlapping deltas are safe to apply in order.
//
// The store is opened as a replica for the duration of the apply: like
// a follower, the apply must be expiry-passive — a registration whose
// TTL looks elapsed NOW may be renewed by a touch record later in this
// very delta, so neither the open-time sweep nor a mid-apply compaction
// may reclaim it. The next normal (leader) open performs the sweep.
func ApplyIncremental(r io.Reader, dir string, opts ...DurabilityOption) (*IncrementalStats, error) {
	st, err := OpenDurableStore(dir,
		append(append([]DurabilityOption{}, opts...), WithReplica())...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	sink := &incrementalSink{st: st, stats: &IncrementalStats{}}
	if err := readArchive(r, sink); err != nil {
		return nil, err
	}
	have := st.Watermark()
	for i, s := range sink.since {
		if s > have[i] {
			return nil, fmt.Errorf("%w: archive starts after shard %d offset %d, directory is at %d",
				ErrStreamGap, i, s, have[i])
		}
	}
	if err := st.Sync(); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return sink.stats, nil
}

// ArchiveWatermark reads an archive (full or incremental) just far
// enough to report the stream watermark it reaches — the position a
// later `backup -since` continues from. The whole archive is scanned and
// checksum-verified in the process.
func ArchiveWatermark(r io.Reader) (Watermark, error) {
	sink := &watermarkSink{}
	if err := readArchive(r, sink); err != nil {
		return nil, err
	}
	return sink.wm, nil
}

// watermarkSink extracts per-shard stream offsets from file records.
type watermarkSink struct {
	wm Watermark
}

func (s *watermarkSink) Header(shards int, _ uint64, _ []uint64) error {
	s.wm = make(Watermark, shards)
	return nil
}

func (s *watermarkSink) File(name string, seq uint64) error {
	for _, re := range []*regexp.Regexp{archiveShardEntry, deltaFileName} {
		if m := re.FindStringSubmatch(name); m != nil {
			if idx, err := strconv.Atoi(m[1]); err == nil && idx < len(s.wm) && seq > s.wm[idx] {
				s.wm[idx] = seq
			}
			return nil
		}
	}
	return nil
}

func (s *watermarkSink) Data([]byte) error { return nil }
func (s *watermarkSink) CloseFile() error  { return nil }
func (s *watermarkSink) End(int) error     { return nil }

// shardSnapName returns shard i's snapshot file name — in a data directory
// and in an archive alike.
func shardSnapName(i int) string { return fmt.Sprintf("shard-%04d.snap", i) }

// archiveTailName returns the archive entry name of shard i's record
// tail. The name dates from the layout that kept one WAL file per shard;
// it survives only as an archive entry, so archives old and new restore
// through the same reader.
func archiveTailName(i int) string { return fmt.Sprintf("shard-%04d.wal", i) }

// archiveShardEntry matches a full archive's per-shard entries, capturing
// the shard index and the kind (snap: snapshot image, wal: record tail).
// The index is minimum-width (%04d), so counts beyond 9999 shards produce
// longer names — the pattern must accept them or a large store's own
// backup would be unrestorable.
var archiveShardEntry = regexp.MustCompile(`^shard-([0-9]{4,})\.(wal|snap)$`)

// restoreSink materializes a full archive as a current-layout data
// directory under a staging path: snapshots are copied verbatim, every
// shard's record tail is landed in one log segment, and META is written
// by the sink itself from the archive header.
type restoreSink struct {
	dir    string
	shards int
	seen   map[string]bool
	seg    *os.File // the staged wal-00000001.seg every tail lands in

	// The entry in flight: a snapshot streams straight to its file; a
	// record tail or an archived META is buffered until its checksum has
	// been verified (CloseFile) and only then examined.
	name string
	snap *os.File
	buf  bytes.Buffer
}

// Header implements archiveSink. Incremental archives are refused: a
// delta cannot seed a directory, only extend one (ApplyIncremental).
func (r *restoreSink) Header(shards int, _ uint64, since []uint64) error {
	if since != nil {
		return badArchive("incremental archive; apply it to an existing directory with restore -apply")
	}
	r.shards = shards
	seg, err := os.OpenFile(filepath.Join(r.dir, segName(1)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("anonymizer: restore create: %w", err)
	}
	r.seg = seg
	return nil
}

// File implements archiveSink, pinning the exact entry naming so an
// archive cannot plant strays. The shard index must lie inside the
// header's shard count: state the restored store would never read is
// worse than a stray — it is key material sitting invisibly in the data
// dir.
func (r *restoreSink) File(name string, _ uint64) error {
	if r.seen[name] {
		return badArchive("duplicate file %q", name)
	}
	r.seen[name] = true
	r.name = name
	r.buf.Reset()
	if name == metaFile {
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
	if m[2] == "snap" {
		f, err := os.OpenFile(filepath.Join(r.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
		if err != nil {
			return fmt.Errorf("anonymizer: restore create: %w", err)
		}
		r.snap = f
	}
	return nil
}

// Data implements archiveSink.
func (r *restoreSink) Data(chunk []byte) error {
	if r.snap == nil {
		r.buf.Write(chunk)
		return nil
	}
	if _, err := r.snap.Write(chunk); err != nil {
		return fmt.Errorf("anonymizer: restore write: %w", err)
	}
	return nil
}

// CloseFile implements archiveSink: the entry's content is complete and
// checksum-verified.
func (r *restoreSink) CloseFile() error {
	switch {
	case r.snap != nil:
		err := syncClose(r.snap)
		r.snap = nil
		if err != nil {
			return fmt.Errorf("anonymizer: restore sync: %w", err)
		}
		return nil
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
	default:
		return r.landTail()
	}
}

// landTail appends the buffered record tail to the staged segment.
// Records are self-describing — the shard follows from the region-ID
// hash, the stream offset rides in the payload — so the frames land
// verbatim and recovery routes them exactly as it routes a live log. Only
// whole, CRC-clean frames are written: a tail whose LAST frame is torn (a
// cold backup of a crashed per-shard directory copied the file as it was)
// restores to its intact prefix, the bytes recovery would have truncated;
// damage with more data behind it is corruption, and a torn frame
// mid-segment would make the store unopenable, so it fails the archive.
func (r *restoreSink) landTail() error {
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
	if _, err := r.seg.Write(tail[:intact]); err != nil {
		return fmt.Errorf("anonymizer: restore write: %w", err)
	}
	return nil
}

// End implements archiveSink: seal the staged segment and write the
// header that makes the staging directory a data directory.
func (r *restoreSink) End(int) error {
	err := syncClose(r.seg)
	r.seg = nil
	if err != nil {
		return fmt.Errorf("anonymizer: restore sync: %w", err)
	}
	if err := writeMeta(r.dir, r.shards); err != nil {
		return err
	}
	return syncDir(r.dir)
}

// close releases whatever handles a failed restore left open (after a
// successful one there are none).
func (r *restoreSink) close() {
	for _, f := range []*os.File{r.seg, r.snap} {
		if f != nil {
			_ = f.Close()
		}
	}
}

// RestoreArchive seeds a fresh durable data directory at dir from the
// archive in r, always in the current layout (storeMetaVersion) whatever
// binary took the archive — so the first OpenDurableStore of the result
// is an ordinary recovery, with nothing to convert and nothing to
// truncate. The archive is staged into a sibling temp directory and
// verified completely — framing, per-file checksums, file naming, every
// tail record's frame, the end record — before a single rename publishes
// it as dir, so a truncated or corrupted archive fails cleanly without
// ever creating dir, and a crash mid-restore leaves only a removable
// staging directory. dir must not already exist: restoring over live
// state is refused, not merged.
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
