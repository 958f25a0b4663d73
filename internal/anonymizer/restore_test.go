package anonymizer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// This file pins the one-layout contract: RestoreArchive stages the
// current layout directly — whatever binary took the archive — so the
// first open of a restored directory is an ordinary recovery, and a
// directory in any other layout version or stripe count is refused before
// a byte of it is touched. The checked-in fixtures pin archives taken
// before today's layout, all cut at 4 stripes: v1store.rca of a per-shard
// directory, v3store.rca of the last layout before LSNs and v4store.rca of
// today's layout — all still restore, re-striped to 16 — while the
// v3store directory itself is refused untouched.

// copyDir copies a (flat) data directory byte for byte.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range readTree(t, src) {
		if name == "./" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dst, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readTree returns every path under dir (relative, directories with a
// trailing slash) mapped to its content, for byte-for-byte comparisons.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[rel+"/"] = ""
			return nil
		}
		raw, err := os.ReadFile(path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireCurrentLayout fails unless dir is laid out exactly as the store
// writes it today: META at storeMetaVersion and DefaultShards stripes, at
// least one log segment, and nothing named like a per-shard WAL.
func requireCurrentLayout(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	var m storeMeta
	if err := json.Unmarshal(raw, &m); err != nil || m.Version != storeMetaVersion || m.Shards != DefaultShards {
		t.Fatalf("%s META = %q (%v), want version %d with %d stripes", dir, raw, err, storeMetaVersion, DefaultShards)
	}
	segs := 0
	for name := range readTree(t, dir) {
		if segFileName.MatchString(name) {
			segs++
		}
		if strings.HasSuffix(name, ".wal") || strings.HasSuffix(name, ".tmp") {
			t.Errorf("%s holds %s: not a file of the current layout", dir, name)
		}
	}
	if segs == 0 {
		t.Errorf("%s holds no log segment", dir)
	}
}

// buildTailedDir populates and closes a store that never compacts, so
// every record sits in the log and an offline archive of it carries
// a non-empty log entry. It returns the directory, the harness whose
// model the store holds, and the closed store's watermark.
func buildTailedDir(t *testing.T, regs int) (string, *harness, uint64) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "src")
	h := newHarness(t, 0)
	st, err := OpenDurableStore(dir, h.opts(WithSnapshotEvery(0))...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < regs; i++ {
		h.register(storeTarget{st})
	}
	first, last := h.ids[0], h.ids[len(h.ids)-1]
	h.expect("set_trust "+first, st.SetTrust(first, "alice", 0), h.m.setTrust(first, "alice", 0))
	h.expect("deregister "+last, st.Deregister(last), h.m.deregister(last))
	wm := st.Watermark()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, h, wm
}

// TestRestoreStagesCurrentLayout is the native-restore acceptance test: a
// directory restored from an archive with a non-empty log entry is in the
// current layout, recovers with nothing truncated, and matches the source
// — and the archive's own watermark — exactly.
func TestRestoreStagesCurrentLayout(t *testing.T) {
	src, h, wantWM := buildTailedDir(t, 12)
	var archive bytes.Buffer
	if _, err := BackupDir(&archive, src); err != nil {
		t.Fatal(err)
	}
	arcWM, err := ArchiveWatermark(bytes.NewReader(archive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if arcWM != wantWM {
		t.Fatalf("archive watermark %d, source %d", arcWM, wantWM)
	}

	dst := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(archive.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	requireCurrentLayout(t, dst)
	staged := readTree(t, dst)

	rst := openDurable(t, dst, h.opts()...)
	if got := rst.Recovery().TruncatedBytes; got != 0 {
		t.Errorf("first open of a restored dir truncated %d bytes", got)
	}
	h.requireModel("restore", rst)
	if rst.Watermark() != wantWM {
		t.Fatalf("restored watermark %d, want %d", rst.Watermark(), wantWM)
	}
	// The first open renames, rewrites and removes nothing.
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readTree(t, dst), staged) {
		t.Error("opening the restored directory changed its files")
	}

	// Restore is a pure function of the archive.
	again := filepath.Join(t.TempDir(), "restored-again")
	if err := RestoreArchive(bytes.NewReader(archive.Bytes()), again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readTree(t, again), staged) {
		t.Error("two restores of one archive differ")
	}
}

// tailArchive hand-builds a one-shard full archive whose only entry is
// the given record range: a per-shard tail as archives written before
// LSNs carry (name "shard-0000.wal"), or a log entry ending at lsn.
func tailArchive(t *testing.T, name string, lsn uint64, tail []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw := newArchiveWriter(&buf)
	aw.header(1, 0, nil)
	aw.file(name, lsn, tail)
	if err := aw.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreDamagedTail pins the tail damage rules. Cold archives of
// crashed per-shard directories carry the WAL file as it was, torn last
// frame included: that restores to the intact prefix — the bytes recovery
// would have kept. Damage with data behind it is corruption: the archive
// is refused and the target never created. A log entry's record count
// fixes every LSN, so any damage there is refused. Either way no torn
// frame ever reaches the staged segment.
func TestRestoreDamagedTail(t *testing.T) {
	const regs = 5
	src, _, _ := buildTailedDir(t, regs)
	tail, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var frameEnds []int
	if _, err := readFrames(bytes.NewReader(tail), func(p []byte) error {
		prev := 0
		if n := len(frameEnds); n > 0 {
			prev = frameEnds[n-1]
		}
		frameEnds = append(frameEnds, prev+walHeaderSize+len(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	records := len(frameEnds) // regs registers + 1 trust + 1 deregister
	lastStart := frameEnds[records-2]
	flip := func(pos int) []byte {
		out := append([]byte(nil), tail...)
		out[pos] ^= 0x40
		return out
	}

	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"short payload", tail[:len(tail)-3]},
		{"short header", tail[:lastStart+5]},
		{"last frame fails its CRC", flip(len(tail) - 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := filepath.Join(t.TempDir(), "restored")
			if err := RestoreArchive(bytes.NewReader(tailArchive(t, "shard-0000.wal", 0, tc.tail)), dst); err != nil {
				t.Fatal(err)
			}
			requireCurrentLayout(t, dst)
			seg, err := os.ReadFile(filepath.Join(dst, segName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seg, tail[:lastStart]) {
				t.Fatalf("staged segment holds %d bytes, want the %d-byte intact prefix", len(seg), lastStart)
			}
			rst := openDurable(t, dst)
			if got := rst.Recovery().TruncatedBytes; got != 0 {
				t.Errorf("open truncated %d bytes: a torn frame was staged", got)
			}
			// The dropped record is the deregistration, so every
			// registration is still live.
			if rst.Len() != regs {
				t.Errorf("Len = %d, want %d", rst.Len(), regs)
			}
		})
	}

	for _, tc := range []struct {
		name  string
		entry string
		tail  []byte
	}{
		{"first frame fails its CRC", "shard-0000.wal", flip(walHeaderSize + 4)},
		{"middle frame fails its CRC", "shard-0000.wal", flip(frameEnds[1] + walHeaderSize + 4)},
		{"log entry's last frame fails its CRC", archiveLogName, flip(len(tail) - 2)},
		{"log entry's last frame is short", archiveLogName, tail[:len(tail)-3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := filepath.Join(t.TempDir(), "restored")
			err := RestoreArchive(bytes.NewReader(tailArchive(t, tc.entry, uint64(records), tc.tail)), dst)
			if !errors.Is(err, ErrBadArchive) {
				t.Fatalf("err = %v, want ErrBadArchive", err)
			}
			requireNoDir(t, dst)
		})
	}
}

// TestRestoreChecksArchivedMeta: archives from binaries that kept a
// per-shard directory layout carry that directory's META.json. Restore
// writes its own header; the archived one is only checked for agreeing
// with the archive header on the stripe count.
func TestRestoreChecksArchivedMeta(t *testing.T) {
	build := func(meta string) []byte {
		var buf bytes.Buffer
		aw := newArchiveWriter(&buf)
		aw.header(2, 0, nil)
		aw.file(metaFile, 0, []byte(meta))
		if err := aw.finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, meta := range []string{`{"version":1,"shards":2}`, `{"version":7,"shards":2}`} {
		dst := filepath.Join(t.TempDir(), "restored")
		if err := RestoreArchive(bytes.NewReader(build(meta)), dst); err != nil {
			t.Fatalf("archived META %s: %v", meta, err)
		}
		requireCurrentLayout(t, dst)
		openDurable(t, dst)
	}
	for _, meta := range []string{`{"version":1,"shards":4}`, `not json`} {
		dst := filepath.Join(t.TempDir(), "restored")
		if err := RestoreArchive(bytes.NewReader(build(meta)), dst); !errors.Is(err, ErrBadArchive) {
			t.Fatalf("archived META %s: err = %v, want ErrBadArchive", meta, err)
		}
		requireNoDir(t, dst)
	}
}

// TestUnsupportedLayoutRefused synthesizes directories whose META names a
// retired (1, 2, 3) or future (5) layout version, or today's layout at a
// stripe count other than DefaultShards (4, 32: directories cut by
// binaries that could reshard), and drives every entry point that reads a
// data directory — the calls behind serve, dump, backup -data-dir, backup
// -since and restore -apply. Each must fail with ErrUnsupportedLayout
// naming what it found and what this binary supports, and must leave the
// directory byte-for-byte as it was.
func TestUnsupportedLayoutRefused(t *testing.T) {
	type row struct {
		name, meta string
		want       []string
	}
	var rows []row
	for _, version := range []int{1, 2, 3, 5} {
		rows = append(rows, row{
			fmt.Sprintf("version=%d", version),
			fmt.Sprintf("{\"version\":%d,\"shards\":2}\n", version),
			[]string{fmt.Sprintf("version %d", version), fmt.Sprintf("version %d", storeMetaVersion)},
		})
	}
	for _, stripes := range []int{4, 32} {
		rows = append(rows, row{
			fmt.Sprintf("stripes=%d", stripes),
			fmt.Sprintf("{\"version\":%d,\"shards\":%d}\n", storeMetaVersion, stripes),
			[]string{fmt.Sprintf("%d stripes", stripes), fmt.Sprintf("only %d", DefaultShards), "restore"},
		})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "old")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			files := map[string]string{
				metaFile:         tc.meta,
				shardSnapName(0): "snapshot bytes",
				"shard-0000.wal": "per-shard wal bytes",
				segName(1):       "segment bytes",
			}
			for name, content := range files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := readTree(t, dir)
			parent := filepath.Dir(dir)
			siblings := readTree(t, parent)

			for _, op := range []struct {
				name string
				run  func() error
			}{
				{"OpenDurableStore", func() error {
					st, err := OpenDurableStore(dir)
					if err == nil {
						_ = st.Close()
					}
					return err
				}},
				{"OpenDurableStore(replica)", func() error {
					st, err := OpenDurableStore(dir, WithReplica())
					if err == nil {
						_ = st.Close()
					}
					return err
				}},
				{"BackupDir", func() error {
					_, err := BackupDir(&bytes.Buffer{}, dir)
					return err
				}},
				{"IncrementalBackupDir", func() error {
					_, _, err := IncrementalBackupDir(&bytes.Buffer{}, dir, 0)
					return err
				}},
				{"ApplyIncremental", func() error {
					_, err := ApplyIncremental(bytes.NewReader(nil), dir)
					return err
				}},
			} {
				err := op.run()
				if !errors.Is(err, ErrUnsupportedLayout) {
					t.Fatalf("%s: err = %v, want ErrUnsupportedLayout", op.name, err)
				}
				for _, want := range tc.want {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s: %q does not name %q", op.name, err, want)
					}
				}
				if !reflect.DeepEqual(readTree(t, dir), before) {
					t.Fatalf("%s changed the refused directory", op.name)
				}
			}
			if !reflect.DeepEqual(readTree(t, parent), siblings) {
				t.Error("a refused operation left something next to the directory")
			}
		})
	}
}

// fixtureDumpLine mirrors the dump tool's per-registration JSON line
// (cmd/anonymizer dump), minus the reduction digests, which need the map
// the fixture's regions were cut from.
type fixtureDumpLine struct {
	ID      string         `json:"id"`
	Levels  int            `json:"levels"`
	Default int            `json:"default"`
	Grants  map[string]int `json:"grants"`
	Region  string         `json:"region_sha256"`
}

// requireFixtureDump checks an open store against a golden dump file.
func requireFixtureDump(t *testing.T, st *DurableStore, goldenPath string) {
	t.Helper()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := bytes.Split(bytes.TrimSpace(golden), []byte("\n"))
	if st.Len() != len(rows) {
		t.Fatalf("store holds %d registrations, golden dump %d", st.Len(), len(rows))
	}
	for _, raw := range rows {
		var l fixtureDumpLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("golden dump line %q: %v", raw, err)
		}
		reg, err := st.Lookup(l.ID)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", l.ID, err)
		}
		if reg.Levels() != l.Levels {
			t.Errorf("%s: levels %d, golden %d", l.ID, reg.Levels(), l.Levels)
		}
		if got := reg.policy.DefaultLevel(); got != l.Default {
			t.Errorf("%s: default level %d, golden %d", l.ID, got, l.Default)
		}
		if grants := reg.policy.Grants(); len(grants)+len(l.Grants) > 0 && !reflect.DeepEqual(grants, l.Grants) {
			t.Errorf("%s: grants %v, golden %v", l.ID, grants, l.Grants)
		}
		region, err := json.Marshal(reg.Region())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(region)
		if got := hex.EncodeToString(sum[:]); got != l.Region {
			t.Errorf("%s: region digest %s, golden %s", l.ID, got, l.Region)
		}
	}
}

// archiveEntry is one file of an archive as readEntries returns it.
type archiveEntry struct {
	name    string
	lsn     uint64
	content []byte
}

// collectSink reads a full archive back into its header and entries.
type collectSink struct {
	shards  int
	nextID  uint64
	entries []archiveEntry
}

func (s *collectSink) Header(n int, nextID uint64, _ *uint64) error {
	s.shards, s.nextID = n, nextID
	return nil
}

func (s *collectSink) File(name string, lsn uint64) error {
	s.entries = append(s.entries, archiveEntry{name: name, lsn: lsn})
	return nil
}

func (s *collectSink) Data(p []byte) error {
	e := &s.entries[len(s.entries)-1]
	e.content = append(e.content, p...)
	return nil
}

func (s *collectSink) CloseFile() error { return nil }
func (s *collectSink) End(int) error    { return nil }

// entry returns the archive entry named name, if there is one.
func (s *collectSink) entry(name string) (archiveEntry, bool) {
	for _, e := range s.entries {
		if e.name == name {
			return e, true
		}
	}
	return archiveEntry{}, false
}

// readEntries reads a checksum-verified archive back into its parts.
func readEntries(t *testing.T, raw []byte) *collectSink {
	t.Helper()
	sink := &collectSink{}
	if err := readArchive(bytes.NewReader(raw), sink); err != nil {
		t.Fatal(err)
	}
	return sink
}

// splitFrames cuts a snapshot image into its whole CRC frames.
func splitFrames(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	off := 0
	if _, err := readFrames(bytes.NewReader(raw), func(p []byte) error {
		frames = append(frames, raw[off:off+walHeaderSize+len(p)])
		off += walHeaderSize + len(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// snapFloor returns the LSN a snapshot image's header frame names.
func snapFloor(t *testing.T, snap []byte) uint64 {
	t.Helper()
	var lsn uint64
	if _, err := readRecords(bytes.NewReader(snap), func(rec *walRecord) error {
		if rec.Type == recSnapHeader {
			lsn = rec.LSN
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lsn
}

// requireRestriped checks a store opened on a directory restored from arc
// against the re-striping rule: stripe t holds a snapshot exactly when the
// archive's stripe t&(n-1) did, and recovers that snapshot's LSN floor.
func requireRestriped(t *testing.T, dir string, arc *collectSink, st *DurableStore) {
	t.Helper()
	want, got := 0, 0
	for name := range readTree(t, dir) {
		if strings.HasSuffix(name, ".snap") {
			got++
		}
	}
	for i, sh := range st.shards {
		old, had := arc.entry(shardSnapName(i & (arc.shards - 1)))
		_, err := os.Stat(filepath.Join(dir, shardSnapName(i)))
		if (err == nil) != had {
			t.Errorf("stripe %d: snapshot present %v, archive's stripe %d had one %v", i, err == nil, i&(arc.shards-1), had)
		}
		var floor uint64
		if had {
			want++
			floor = snapFloor(t, old.content)
		}
		if sh.snapLSN != floor {
			t.Errorf("stripe %d recovered floor %d, want the archived stripe's %d", i, sh.snapLSN, floor)
		}
	}
	if got != want {
		t.Errorf("%d snapshot files, want %d", got, want)
	}
}

// restoreFixture restores the checked-in archive testdata/<name>.rca and
// checks the result against testdata/<name>.dump, captured when the
// archived directory was written: the archive never changes, so neither
// may what today's restore makes of it. scripts/e2e-backup.sh re-checks
// the full dumps, reduction digests included, through the CLI. It returns
// the open store and the archive bytes.
func restoreFixture(t *testing.T, name string) (*DurableStore, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".rca"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(raw), dir); err != nil {
		t.Fatal(err)
	}
	requireCurrentLayout(t, dir)
	st := openDurable(t, dir)
	if got := st.Recovery().TruncatedBytes; got != 0 {
		t.Errorf("open truncated %d bytes", got)
	}
	requireRestriped(t, dir, readEntries(t, raw), st)
	requireFixtureDump(t, st, filepath.Join("testdata", name+".dump"))
	return st, raw
}

// requireNoWatermark checks that an archive written before LSNs existed
// names no log position.
func requireNoWatermark(t *testing.T, raw []byte) {
	t.Helper()
	if _, err := ArchiveWatermark(bytes.NewReader(raw)); !errors.Is(err, ErrBadArchive) {
		t.Errorf("ArchiveWatermark: err = %v, want ErrBadArchive", err)
	}
}

// TestFixtureV4Store restores testdata/v4store.rca, a cold backup of a
// layout-4 directory cut at 4 stripes by the last binary that could set
// the stripe count:
//
//	anonymizer serve -addr 127.0.0.1:7331 -data-dir d4 -shards 4 -ttl 0 \
//	    -snapshot-every 4 -fsync always
//	# 24 anonymize requests on the default small map (2-3 levels, RGE and
//	# RPLE), set_trust and deregister requests among them, over the JSON
//	# wire protocol; then SIGTERM
//	anonymizer backup -data-dir d4 -out v4store.rca
//	anonymizer dump -data-dir d4 > v4store.dump
//
// Its four snapshots cover different LSNs and its log entry holds records
// on both sides of at least one of them. Restore splits each snapshot
// over four of today's 16 stripes, which keep the old stripe's floor, so
// recovery replays exactly the records the old snapshots did not cover.
func TestFixtureV4Store(t *testing.T) {
	st, raw := restoreFixture(t, "v4store")
	arc := readEntries(t, raw)
	if arc.shards != 4 {
		t.Fatalf("fixture archive has %d stripes, want 4", arc.shards)
	}
	logEntry, ok := arc.entry(archiveLogName)
	if !ok {
		t.Fatal("fixture archive has no log entry")
	}
	if st.Watermark() != logEntry.lsn {
		t.Errorf("restored watermark %d, archive's %d", st.Watermark(), logEntry.lsn)
	}
	first := logEntry.lsn - uint64(len(splitFrames(t, logEntry.content))) + 1
	floors := make(map[uint64]bool)
	straddled := false
	for i := 0; i < arc.shards; i++ {
		e, ok := arc.entry(shardSnapName(i))
		if !ok {
			t.Fatalf("fixture archive has no snapshot for stripe %d", i)
		}
		f := snapFloor(t, e.content)
		floors[f] = true
		straddled = straddled || (first <= f && f < logEntry.lsn)
	}
	if len(floors) < 2 || !straddled {
		t.Fatalf("fixture floors %v and log LSNs [%d, %d]: want distinct floors with log records on both sides of one",
			floors, first, logEntry.lsn)
	}
}

// TestFixtureV3Store restores testdata/v3store.rca — a cold backup of the
// checked-in v3store directory (layout version 3, the last before LSNs:
// per-shard stream offsets in every record and snapshot) taken by the
// last binary that read that layout — against the directory's golden
// dump. The directory itself is the refusal fixture: today's store must
// refuse to open it and leave it byte for byte as it was.
func TestFixtureV3Store(t *testing.T) {
	_, raw := restoreFixture(t, "v3store")
	requireNoWatermark(t, raw)

	dir := filepath.Join(t.TempDir(), "v3store")
	copyDir(t, filepath.Join("testdata", "v3store"), dir)
	before := readTree(t, dir)
	if st, err := OpenDurableStore(dir); !errors.Is(err, ErrUnsupportedLayout) {
		if err == nil {
			_ = st.Close()
		}
		t.Fatalf("opening the v3store directory: err = %v, want ErrUnsupportedLayout", err)
	}
	if !reflect.DeepEqual(readTree(t, dir), before) {
		t.Error("the refused v3store directory changed")
	}
}

// TestRestoreLegacyArchive restores testdata/v1store.rca — a cold backup
// of a version-1 per-shard directory (non-empty shard-NNNN.wal tails, a
// version-1 META entry), taken by the last binary that still read that
// layout — and checks the result against that directory's golden dump.
// Archives are the only bridge from a retired layout, so this one must
// keep restoring.
func TestRestoreLegacyArchive(t *testing.T) {
	_, raw := restoreFixture(t, "v1store")
	requireNoWatermark(t, raw)
}

// stripeCountArchive hand-builds a full archive whose header names n
// stripes, with one snapshot entry and an empty log entry.
func stripeCountArchive(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw := newArchiveWriter(&buf)
	aw.header(n, 0, nil)
	aw.file(shardSnapName(0), 0, nil)
	aw.file(archiveLogName, 0, nil)
	if err := aw.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsBadStripeCount: restore re-stripes archives cut at a
// power of two from 1 to DefaultShards stripes and refuses any other
// count before the target exists — a header naming 1<<40 stripes once
// restored into a directory no store could open.
func TestRestoreRejectsBadStripeCount(t *testing.T) {
	for _, n := range []int{3, 32, 1 << 40} {
		dst := filepath.Join(t.TempDir(), "restored")
		if err := RestoreArchive(bytes.NewReader(stripeCountArchive(t, n)), dst); !errors.Is(err, ErrBadArchive) {
			t.Fatalf("%d stripes: err = %v, want ErrBadArchive", n, err)
		}
		requireNoDir(t, dst)
	}
}

// foldArchive rewrites a full archive whose snapshots all share one
// header frame (a hot backup: WriteBackup compacts every stripe at one
// LSN) as the archive a store cut at n stripes would have written: entry
// i holds that header and the register frames of every stripe t with
// t&(n-1) == i, in stripe order.
func foldArchive(t *testing.T, arc *collectSink, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw := newArchiveWriter(&buf)
	aw.header(n, arc.nextID, nil)
	var header []byte
	for i := 0; i < n; i++ {
		var snap []byte
		var lsn uint64
		for s := i; s < DefaultShards; s += n {
			e, ok := arc.entry(shardSnapName(s))
			if !ok {
				t.Fatalf("hot archive has no snapshot for stripe %d", s)
			}
			frames := splitFrames(t, e.content)
			if header == nil {
				header = frames[0]
			} else if !bytes.Equal(frames[0], header) {
				t.Fatalf("stripe %d snapshot header %q differs from %q", s, frames[0], header)
			}
			if s == i {
				snap, lsn = append(snap, header...), e.lsn
			}
			for _, f := range frames[1:] {
				snap = append(snap, f...)
			}
		}
		aw.file(shardSnapName(i), lsn, snap)
	}
	logEntry, ok := arc.entry(archiveLogName)
	if !ok {
		t.Fatal("hot archive has no log entry")
	}
	aw.file(archiveLogName, logEntry.lsn, logEntry.content)
	if err := aw.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRestripes folds a hot archive down to every stripe count
// restore accepts and checks that each restores to exactly the directory
// the unfolded archive restores to: new stripe t draws only from old
// stripe t&(n-1), gets its header verbatim and its own register frames in
// order. A register frame filed under a stripe its ID does not hash to is
// refused.
func TestRestoreRestripes(t *testing.T) {
	st := openDurable(t, t.TempDir())
	for i := 0; i < 48; i++ {
		id, err := st.Register(fakeRegistration(t, 1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := st.SetTrust(id, "alice", 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	var hot bytes.Buffer
	if _, err := st.WriteBackup(&hot); err != nil {
		t.Fatal(err)
	}
	restore := func(raw []byte) (string, error) {
		dst := filepath.Join(t.TempDir(), "restored")
		return dst, RestoreArchive(bytes.NewReader(raw), dst)
	}
	dir, err := restore(hot.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := readTree(t, dir)
	arc := readEntries(t, hot.Bytes())
	for _, n := range []int{1, 2, 4, 8, 16} {
		dir, err := restore(foldArchive(t, arc, n))
		if err != nil {
			t.Fatalf("%d stripes: %v", n, err)
		}
		if !reflect.DeepEqual(readTree(t, dir), want) {
			t.Errorf("restore of the %d-stripe fold differs from the 16-stripe restore", n)
		}
	}

	// Swap the two entries of a 2-stripe fold: each now holds registers
	// of the other stripe.
	folded := readEntries(t, foldArchive(t, arc, 2))
	var buf bytes.Buffer
	aw := newArchiveWriter(&buf)
	aw.header(2, folded.nextID, nil)
	for _, e := range folded.entries {
		name := e.name
		switch name {
		case shardSnapName(0):
			name = shardSnapName(1)
		case shardSnapName(1):
			name = shardSnapName(0)
		}
		aw.file(name, e.lsn, e.content)
	}
	if err := aw.finish(); err != nil {
		t.Fatal(err)
	}
	dst, err := restore(buf.Bytes())
	if !errors.Is(err, ErrBadArchive) {
		t.Fatalf("misfiled register frames: err = %v, want ErrBadArchive", err)
	}
	requireNoDir(t, dst)
}
