package anonymizer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// requireNoDir fails if path exists: a failed restore must never create
// the data directory (or leave its staging directory behind).
func requireNoDir(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s exists after a failed restore (stat err %v)", path, err)
	}
	if _, err := os.Stat(path + ".restore-tmp"); !os.IsNotExist(err) {
		t.Fatalf("staging dir for %s left behind (stat err %v)", path, err)
	}
}

// buildBackupArchive produces a store with a few mutations and returns
// its archive plus the ids it holds.
func buildBackupArchive(t *testing.T) ([]byte, []string) {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithSnapshotEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.SetTrust(ids[0], "alice", 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Deregister(ids[1]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteBackup(&buf); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ids
}

// TestRestoreRejectsTruncatedArchive is the acceptance-criteria negative
// path: every proper prefix of a valid archive must fail cleanly with
// ErrBadArchive and never create the destination directory.
func TestRestoreRejectsTruncatedArchive(t *testing.T) {
	archive, _ := buildBackupArchive(t)
	base := t.TempDir()
	cuts := []int{0, 1, walHeaderSize - 1, walHeaderSize + 3,
		len(archive) / 3, len(archive) / 2, len(archive) - 1}
	for i, cut := range cuts {
		dst := filepath.Join(base, fmt.Sprintf("restored-%d", i))
		err := RestoreArchive(bytes.NewReader(archive[:cut]), dst)
		if !errors.Is(err, ErrBadArchive) {
			t.Fatalf("restore of %d/%d bytes: err = %v, want ErrBadArchive", cut, len(archive), err)
		}
		requireNoDir(t, dst)
	}
}

// TestRestoreRejectsCorruptedArchive flips single bytes across the
// archive: every corruption must be caught by a CRC (frame or file) and
// leave nothing behind.
func TestRestoreRejectsCorruptedArchive(t *testing.T) {
	archive, _ := buildBackupArchive(t)
	base := t.TempDir()
	for i, pos := range []int{2, walHeaderSize + 2, len(archive) / 2, len(archive) - 2} {
		corrupt := append([]byte(nil), archive...)
		corrupt[pos] ^= 0x40
		dst := filepath.Join(base, fmt.Sprintf("restored-%d", i))
		if err := RestoreArchive(bytes.NewReader(corrupt), dst); err == nil {
			t.Fatalf("restore of archive with byte %d flipped succeeded", pos)
		}
		requireNoDir(t, dst)
	}
}

// TestRestoreRejectsExistingTarget: restoring over live state is refused,
// and the existing directory is untouched.
func TestRestoreRejectsExistingTarget(t *testing.T) {
	archive, _ := buildBackupArchive(t)
	dst := t.TempDir() // exists
	canary := filepath.Join(dst, "canary")
	if err := os.WriteFile(canary, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := RestoreArchive(bytes.NewReader(archive), dst); err == nil {
		t.Fatal("restore into an existing directory succeeded")
	}
	if _, err := os.Stat(canary); err != nil {
		t.Fatalf("existing directory disturbed: %v", err)
	}
}

// TestRestoreRejectsForeignFileNames: an archive naming a file outside
// the durable-store layout — or a shard index outside the header's
// shard count, which the restored store would silently never read —
// must be rejected (path traversal, strays, invisible key material).
func TestRestoreRejectsForeignFileNames(t *testing.T) {
	for _, name := range []string{"evil", "shard-0000.wal.bak", "a/b", "..", "..\\x",
		"shard-0001.wal", "shard-0009.snap", "shard-123.wal"} {
		var buf bytes.Buffer
		aw := newArchiveWriter(&buf)
		aw.header(1, 0, nil)
		aw.file(name, 0, []byte("payload"))
		if err := aw.finish(); err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(t.TempDir(), "restored")
		if err := RestoreArchive(bytes.NewReader(buf.Bytes()), dst); !errors.Is(err, ErrBadArchive) {
			t.Fatalf("restore of archive with file %q: err = %v, want ErrBadArchive", name, err)
		}
		requireNoDir(t, dst)
	}
}

// TestBackupRoundTripOffline pins BackupDir: an offline archive of a
// closed directory restores to an identical store.
func TestBackupRoundTripOffline(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := BackupDir(&buf, dir); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	rst := openDurable(t, dst)
	if rst.Len() != len(ids) {
		t.Fatalf("restored Len = %d, want %d", rst.Len(), len(ids))
	}
	for _, id := range ids {
		if _, err := rst.Lookup(id); err != nil {
			t.Errorf("Lookup(%q) after offline round trip: %v", id, err)
		}
	}
	// Not a durable dir at all: refuse, don't invent an archive.
	if _, err := BackupDir(&buf, t.TempDir()); err == nil {
		t.Error("BackupDir of a non-store directory succeeded")
	}
}

// TestBackupClosedStore pins WriteBackup's post-Close behavior.
func TestBackupClosedStore(t *testing.T) {
	st, err := OpenDurableStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteBackup(&bytes.Buffer{}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("WriteBackup after Close: %v, want ErrStoreClosed", err)
	}
}

// TestHotBackupUnderLoad takes a backup while writers are mutating the
// store: the archive must restore to a clean store whose every entry
// matches the live store's final state for that ID (each shard is a
// consistent prefix of its mutation stream).
func TestHotBackupUnderLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithSnapshotEvery(16))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()

	proto := fakeRegistration(t, 2)
	// Seed a floor of registrations so the archive is non-trivial even if
	// the backup wins every race with the writers below.
	for i := 0; i < 8; i++ {
		if _, err := st.Register(proto); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := st.Register(proto)
				if err != nil {
					panic(err)
				}
				if err := st.SetTrust(id, "reader", 1); err != nil {
					panic(err)
				}
			}
		}()
	}
	var buf bytes.Buffer
	if _, err := st.WriteBackup(&buf); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	dst := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	rst := openDurable(t, dst)
	if rst.Len() == 0 {
		t.Fatal("hot backup restored to an empty store")
	}
	if rst.Len() > st.Len() {
		t.Fatalf("restored store holds %d registrations, live store only %d", rst.Len(), st.Len())
	}
	// Every restored registration must match the live one byte for byte.
	var mismatch error
	rst.Range(func(id string, got *Registration) bool {
		want, err := st.Lookup(id)
		if err != nil {
			mismatch = fmt.Errorf("restored id %q unknown to the live store: %v", id, err)
			return false
		}
		wantRaw, _ := json.Marshal(want.Region())
		gotRaw, _ := json.Marshal(got.Region())
		if !bytes.Equal(wantRaw, gotRaw) {
			mismatch = fmt.Errorf("restored region %q differs from live", id)
			return false
		}
		return true
	})
	if mismatch != nil {
		t.Fatal(mismatch)
	}
}

// TestBackupOverWire drives the backup op end to end through the server
// and client: hot archive over TCP, restore, reopen, byte-identical
// regions.
func TestBackupOverWire(t *testing.T) {
	g, density := testGrid(t)
	dir := t.TempDir()
	srv := newTestServer(t, g, density, WithStore(openDurable(t, dir)))
	addr := startTestServer(t, srv)
	c := dial(t, addr)

	id, region, err := c.Anonymize(42, testProfile(), "RGE")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetTrust(id, "doctor", 0); err != nil {
		t.Fatal(err)
	}
	wantRegion, err := json.Marshal(region)
	if err != nil {
		t.Fatal(err)
	}
	wantReduced, wantLv, err := c.Reduce(id, "doctor", 0)
	if err != nil {
		t.Fatal(err)
	}
	wantReducedRaw, err := json.Marshal(wantReduced)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := c.Backup(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("Backup wrote %d bytes, buffer holds %d", n, buf.Len())
	}

	dst := filepath.Join(t.TempDir(), "restored")
	if err := RestoreArchive(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	srv2 := newTestServer(t, g, density, WithStore(openDurable(t, dst)))
	addr2 := startTestServer(t, srv2)
	c2 := dial(t, addr2)
	got, _, err := c2.GetRegion(id)
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRaw, wantRegion) {
		t.Error("region not byte-identical after wire backup + restore")
	}
	gotReduced, gotLv, err := c2.Reduce(id, "doctor", 0)
	if err != nil {
		t.Fatal(err)
	}
	gotReducedRaw, err := json.Marshal(gotReduced)
	if err != nil {
		t.Fatal(err)
	}
	if gotLv != wantLv || !bytes.Equal(gotReducedRaw, wantReducedRaw) {
		t.Error("reduction not byte-identical after wire backup + restore")
	}
}

// TestJournalLessServerRefusesStreamOps: a server over a journal-less
// store has nothing to back up and no stream to ship, and says so in-band
// — an ErrBadOp answer over either codec that leaves the connection
// usable, never a dropped connection.
func TestJournalLessServerRefusesStreamOps(t *testing.T) {
	_, addr, _ := startServer(t)
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(codec.String(), func(t *testing.T) {
			c, err := Dial(addr, WithCodec(codec))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			for op, call := range map[string]func() error{
				"backup":         func() error { _, err := c.Backup(&bytes.Buffer{}); return err },
				"backup -since":  func() error { _, err := c.BackupSince(&bytes.Buffer{}, 0, ""); return err },
				"repl_subscribe": func() error { _, err := c.ReplSubscribe(0, false, "127.0.0.1:1", 0); return err },
			} {
				err := call()
				if !errors.Is(err, ErrRemote) ||
					!strings.Contains(err.Error(), ErrBadOp.Error()) ||
					!strings.Contains(err.Error(), "requires a durable store") {
					t.Errorf("%s against a journal-less server: %v, want an in-band ErrBadOp", op, err)
				}
				if err := c.Ping(); err != nil {
					t.Fatalf("connection unusable after refused %s: %v", op, err)
				}
			}
		})
	}
}
