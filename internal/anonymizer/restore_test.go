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
// directory in any other layout version is refused before a byte of it is
// touched. The checked-in fixtures pin both directions in time: v3store
// that today's format does not drift, v1store.rca that archives taken
// before the per-shard layout was dropped still restore.

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
// writes it today: META at storeMetaVersion, at least one log segment, and
// nothing named like a per-shard WAL.
func requireCurrentLayout(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	var m storeMeta
	if err := json.Unmarshal(raw, &m); err != nil || m.Version != storeMetaVersion {
		t.Fatalf("%s META = %q (%v), want version %d", dir, raw, err, storeMetaVersion)
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
// non-empty per-shard tails. It returns the directory, the issued IDs and
// the closed store's digest, Len and watermark.
func buildTailedDir(t *testing.T, shards, regs int) (string, []string, map[string]*regDigest, int, Watermark) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "src")
	st, err := OpenDurableStore(dir, WithDurableShards(shards), WithSnapshotEvery(0), WithGCInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < regs; i++ {
		id, err := st.Register(fakeRegistration(t, 1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.SetTrust(ids[0], "alice", 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Deregister(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	digest, n, wm := digestStore(t, st, ids, nil, nil), st.Len(), st.Watermark()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ids, digest, n, wm
}

// TestRestoreStagesCurrentLayout is the native-restore acceptance test: a
// directory restored from an archive with non-empty tails is in the
// current layout, recovers with nothing truncated, and matches the source
// — and the archive's own watermark — exactly.
func TestRestoreStagesCurrentLayout(t *testing.T) {
	src, ids, want, wantLen, wantWM := buildTailedDir(t, 4, 12)
	var archive bytes.Buffer
	if _, err := BackupDir(&archive, src); err != nil {
		t.Fatal(err)
	}
	arcWM, err := ArchiveWatermark(bytes.NewReader(archive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arcWM, wantWM) {
		t.Fatalf("archive watermark %v, source %v", arcWM, wantWM)
	}

	dst := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(archive.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	requireCurrentLayout(t, dst)
	staged := readTree(t, dst)

	rst := openDurable(t, dst, WithGCInterval(0))
	if got := rst.Recovery().TruncatedBytes; got != 0 {
		t.Errorf("first open of a restored dir truncated %d bytes", got)
	}
	requireSameState(t, "restore", want, digestStore(t, rst, ids, nil, nil), wantLen, rst.Len())
	if !reflect.DeepEqual(rst.Watermark(), wantWM) {
		t.Fatalf("restored watermark %v, want %v", rst.Watermark(), wantWM)
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
// the given record tail.
func tailArchive(t *testing.T, tail []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw := newArchiveWriter(&buf)
	aw.header(1, 0, nil)
	aw.file(archiveTailName(0), 0, tail)
	if err := aw.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreDamagedTail pins the tail damage rules. Cold archives of
// crashed per-shard directories carry the WAL file as it was, torn last
// frame included: that restores to the intact prefix — the bytes recovery
// would have kept. Damage with data behind it is corruption: the archive
// is refused and the target never created. Either way no torn frame ever
// reaches the staged segment.
func TestRestoreDamagedTail(t *testing.T) {
	const regs = 5
	src, _, _, _, _ := buildTailedDir(t, 1, regs)
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
			if err := RestoreArchive(bytes.NewReader(tailArchive(t, tc.tail)), dst); err != nil {
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
		name string
		tail []byte
	}{
		{"first frame fails its CRC", flip(walHeaderSize + 4)},
		{"middle frame fails its CRC", flip(frameEnds[1] + walHeaderSize + 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := filepath.Join(t.TempDir(), "restored")
			err := RestoreArchive(bytes.NewReader(tailArchive(t, tc.tail)), dst)
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
// with the archive header on the shard count.
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
		if st := openDurable(t, dst); st.ShardCount() != 2 {
			t.Fatalf("restored shard count %d, want 2", st.ShardCount())
		}
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
// retired (1, 2) or future (4) layout version and drives every entry
// point that reads a data directory — the calls behind serve, dump,
// backup -data-dir, backup -since, reshard -src and restore -apply. Each
// must fail with ErrUnsupportedLayout naming the version it found, and
// must leave the directory byte-for-byte as it was.
func TestUnsupportedLayoutRefused(t *testing.T) {
	for _, version := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("version=%d", version), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "old")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			files := map[string]string{
				metaFile:         fmt.Sprintf("{\"version\":%d,\"shards\":2}\n", version),
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

			reshardDst := filepath.Join(t.TempDir(), "reshard-dst")
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
					_, _, err := IncrementalBackupDir(&bytes.Buffer{}, dir, Watermark{0, 0})
					return err
				}},
				{"Reshard", func() error {
					_, err := Reshard(dir, reshardDst, 4)
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
				if want := fmt.Sprintf("version %d", version); !strings.Contains(err.Error(), want) {
					t.Errorf("%s: %q does not name the found %s", op.name, err, want)
				}
				if want := fmt.Sprintf("version %d", storeMetaVersion); !strings.Contains(err.Error(), want) {
					t.Errorf("%s: %q does not name the supported %s", op.name, err, want)
				}
				if !reflect.DeepEqual(readTree(t, dir), before) {
					t.Fatalf("%s changed the refused directory", op.name)
				}
			}
			if !reflect.DeepEqual(readTree(t, parent), siblings) {
				t.Error("a refused operation left something next to the directory")
			}
			if _, err := os.Stat(reshardDst); !os.IsNotExist(err) {
				t.Errorf("refused reshard created its destination (stat err %v)", err)
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

// TestFixtureV3Store opens a checked-in current-layout directory and
// checks it against the golden dump captured when its bytes were written:
// the fixture never changes, so neither may what today's reader makes of
// it — nor may merely opening it rewrite anything. scripts/e2e-backup.sh
// re-checks the full dump, reduction digests included, through the CLI.
func TestFixtureV3Store(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v3store")
	copyDir(t, filepath.Join("testdata", "v3store"), dir)
	before := readTree(t, dir)
	st := openDurable(t, dir)
	if got := st.Recovery().TruncatedBytes; got != 0 {
		t.Errorf("fixture open truncated %d bytes", got)
	}
	requireFixtureDump(t, st, filepath.Join("testdata", "v3store.dump"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readTree(t, dir), before) {
		t.Error("opening the fixture changed its files")
	}
}

// TestRestoreLegacyArchive restores testdata/v1store.rca — a cold backup
// of a version-1 per-shard directory (non-empty shard-NNNN.wal tails, a
// version-1 META entry), taken by the last binary that still read that
// layout — and checks the result against that directory's golden dump.
// Archives are the only bridge from a retired layout, so this one must
// keep restoring.
func TestRestoreLegacyArchive(t *testing.T) {
	archive, err := os.ReadFile(filepath.Join("testdata", "v1store.rca"))
	if err != nil {
		t.Fatal(err)
	}
	wm, err := ArchiveWatermark(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(archive), dir); err != nil {
		t.Fatal(err)
	}
	requireCurrentLayout(t, dir)
	st := openDurable(t, dir)
	if got := st.Recovery().TruncatedBytes; got != 0 {
		t.Errorf("open truncated %d bytes", got)
	}
	if !reflect.DeepEqual(st.Watermark(), wm) {
		t.Errorf("restored watermark %v, archive watermark %v", st.Watermark(), wm)
	}
	requireFixtureDump(t, st, filepath.Join("testdata", "v1store.dump"))
}
