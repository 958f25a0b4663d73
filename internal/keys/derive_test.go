package keys

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// testSecret returns a deterministic master secret for epoch e.
func testSecret(e byte) []byte {
	s := bytes.Repeat([]byte{e}, MinMasterSecretLen)
	s[0] = 'm'
	return s
}

func testKeyring(t *testing.T) *Keyring {
	t.Helper()
	kr, err := NewKeyring(1, map[uint32][]byte{1: testSecret(1), 2: testSecret(2)})
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func TestDeriveSetDeterministic(t *testing.T) {
	kr := testKeyring(t)
	a, err := kr.DeriveSet(1, "r42", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := kr.DeriveSet(1, "r42", 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", a.Levels())
	}
	for lv := 1; lv <= 3; lv++ {
		ka, _ := a.Level(lv)
		kb, _ := b.Level(lv)
		if len(ka) != derivedKeyLen {
			t.Fatalf("level %d key is %d bytes, want %d", lv, len(ka), derivedKeyLen)
		}
		if !bytes.Equal(ka, kb) {
			t.Fatalf("level %d derivation is not deterministic", lv)
		}
	}

	// An independently constructed keyring over the same secrets derives
	// the same keys: derivation depends only on (secret, epoch, id, level).
	kr2, err := NewKeyring(2, map[uint32][]byte{1: testSecret(1), 2: testSecret(2)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := kr2.DeriveSet(1, "r42", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustLevel(t, a, 2), mustLevel(t, c, 2)) {
		t.Fatal("same (secret, epoch, id, level) derived different keys across keyrings")
	}
}

func mustLevel(t *testing.T, s *Set, lv int) []byte {
	t.Helper()
	k, err := s.Level(lv)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestDeriveSetDomainSeparation pins that changing any one input — epoch,
// registration ID, or level — changes the derived key.
func TestDeriveSetDomainSeparation(t *testing.T) {
	kr := testKeyring(t)
	base, err := kr.DeriveSet(1, "r1", 2)
	if err != nil {
		t.Fatal(err)
	}
	otherEpoch, err := kr.DeriveSet(2, "r1", 2)
	if err != nil {
		t.Fatal(err)
	}
	otherID, err := kr.DeriveSet(1, "r2", 2)
	if err != nil {
		t.Fatal(err)
	}
	k1 := mustLevel(t, base, 1)
	if bytes.Equal(k1, mustLevel(t, otherEpoch, 1)) {
		t.Error("epoch does not separate derivations")
	}
	if bytes.Equal(k1, mustLevel(t, otherID, 1)) {
		t.Error("registration ID does not separate derivations")
	}
	if bytes.Equal(k1, mustLevel(t, base, 2)) {
		t.Error("level does not separate derivations")
	}
	// Length-prefixed encoding: ("r1", level 2) must differ from any
	// confusable concatenation like id "r12"'s keys.
	confusable, err := kr.DeriveSet(1, "r12", 2)
	if err != nil {
		t.Fatal(err)
	}
	for lv := 1; lv <= 2; lv++ {
		if bytes.Equal(mustLevel(t, base, lv), mustLevel(t, confusable, lv)) {
			t.Errorf("id %q level %d collides with id %q", "r1", lv, "r12")
		}
	}
}

// TestDeriveSetCompatible checks the derived output behaves exactly like a
// stored Set: grants, hex round-trip, level range errors.
func TestDeriveSetCompatible(t *testing.T) {
	kr := testKeyring(t)
	s, err := kr.DeriveSet(1, "r7", 3)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := s.Grant(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grant) != 2 {
		t.Fatalf("Grant(1) returned %d keys, want 2", len(grant))
	}
	rt, err := DecodeHex(s.EncodeHex())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustLevel(t, s, 3), mustLevel(t, rt, 3)) {
		t.Fatal("hex round-trip lost key material")
	}
	if _, err := s.Level(4); !errors.Is(err, ErrLevelRange) {
		t.Fatalf("Level(4) err = %v, want ErrLevelRange", err)
	}
}

func TestDeriveSetErrors(t *testing.T) {
	kr := testKeyring(t)
	if _, err := kr.DeriveSet(9, "r1", 2); !errors.Is(err, ErrUnknownEpoch) {
		t.Errorf("unknown epoch err = %v, want ErrUnknownEpoch", err)
	}
	if _, err := kr.DeriveSet(1, "", 2); !errors.Is(err, ErrBadKey) {
		t.Errorf("empty id err = %v, want ErrBadKey", err)
	}
	if _, err := kr.DeriveSet(1, "r1", 0); !errors.Is(err, ErrLevelRange) {
		t.Errorf("zero levels err = %v, want ErrLevelRange", err)
	}
}

func TestNewKeyringValidation(t *testing.T) {
	if _, err := NewKeyring(1, nil); !errors.Is(err, ErrBadKey) {
		t.Errorf("empty keyring err = %v", err)
	}
	if _, err := NewKeyring(1, map[uint32][]byte{1: []byte("short")}); !errors.Is(err, ErrBadKey) {
		t.Errorf("short secret err = %v", err)
	}
	if _, err := NewKeyring(3, map[uint32][]byte{1: testSecret(1)}); !errors.Is(err, ErrBadKey) {
		t.Errorf("missing active epoch err = %v", err)
	}
	if _, err := NewKeyring(0, map[uint32][]byte{0: testSecret(1)}); !errors.Is(err, ErrBadKey) {
		t.Errorf("epoch 0 err = %v", err)
	}
}

// writeKeyFile writes a key file holding secrets for the given epochs.
func writeKeyFile(t *testing.T, path string, active uint32, epochs map[uint32][]byte) {
	t.Helper()
	kf := keyFile{Active: active, Epochs: map[string]string{}}
	for e, s := range epochs {
		kf.Epochs[strconv.FormatUint(uint64(e), 10)] = hex.EncodeToString(s)
	}
	raw, err := json.Marshal(kf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestLoadKeyringAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	writeKeyFile(t, path, 1, map[uint32][]byte{1: testSecret(1)})
	kr, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	if kr.ActiveEpoch() != 1 {
		t.Fatalf("ActiveEpoch = %d, want 1", kr.ActiveEpoch())
	}
	want, err := kr.DeriveSet(1, "r1", 2)
	if err != nil {
		t.Fatal(err)
	}

	// An unchanged file does not reload.
	if changed, err := kr.Reload(); err != nil || changed {
		t.Fatalf("Reload on unchanged file = %v, %v", changed, err)
	}

	// Rotation: add epoch 2, keep epoch 1, flip active. Old-epoch
	// derivations must be unchanged after the reload.
	writeKeyFile(t, path, 2, map[uint32][]byte{1: testSecret(1), 2: testSecret(2)})
	bumpMtime(t, path)
	changed, err := kr.Reload()
	if err != nil || !changed {
		t.Fatalf("Reload after rotation = %v, %v", changed, err)
	}
	if kr.ActiveEpoch() != 2 {
		t.Fatalf("ActiveEpoch after rotation = %d, want 2", kr.ActiveEpoch())
	}
	got, err := kr.DeriveSet(1, "r1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustLevel(t, want, 1), mustLevel(t, got, 1)) {
		t.Fatal("epoch-1 derivation changed across rotation reload")
	}
	if !kr.Has(2) || kr.Has(3) {
		t.Fatalf("Has: epoch 2 = %v, epoch 3 = %v", kr.Has(2), kr.Has(3))
	}
	if got := kr.Epochs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Epochs = %v, want [1 2]", got)
	}

	// A broken edit is rejected and the last good keyring stays in force.
	if err := os.WriteFile(path, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path)
	if _, err := kr.Reload(); err == nil {
		t.Fatal("Reload of broken file did not error")
	}
	if kr.ActiveEpoch() != 2 || !kr.Has(1) {
		t.Fatal("broken reload clobbered the in-memory keyring")
	}
}

// bumpMtime pushes the file's mtime forward so mtime-based reload checks
// see a change even on coarse filesystem clocks.
func bumpMtime(t *testing.T, path string) {
	t.Helper()
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

func TestKeyringWatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	writeKeyFile(t, path, 1, map[uint32][]byte{1: testSecret(1)})
	kr, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	kr.Watch(5*time.Millisecond, nil)
	defer func() { _ = kr.Close() }()

	writeKeyFile(t, path, 2, map[uint32][]byte{1: testSecret(1), 2: testSecret(2)})
	bumpMtime(t, path)
	deadline := time.Now().Add(5 * time.Second)
	for kr.ActiveEpoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up the rotated key file")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := kr.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := kr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyringWatchLogsBadEditOnce: one bad edit of the key file is one
// log line, however many polls see it, and the last good keyring stays.
func TestKeyringWatchLogsBadEditOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	writeKeyFile(t, path, 1, map[uint32][]byte{1: testSecret(1)})
	kr, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(lines)
	}
	kr.Watch(time.Millisecond, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	defer func() { _ = kr.Close() }()

	// One edit: the bad file lands whole, in one rename.
	if err := os.WriteFile(path+".tmp", []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path+".tmp")
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the watcher never reported the bad edit")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // some 50 polls of the same bad file
	if err := kr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("one bad edit logged %d lines, want 1: %q", n, lines)
	}
	if kr.ActiveEpoch() != 1 {
		t.Fatal("the bad edit replaced the keyring")
	}
}

func TestLoadKeyringErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadKeyring(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file did not error")
	}
	bad := filepath.Join(dir, "bad-epoch.json")
	if err := os.WriteFile(bad, []byte(`{"active":1,"epochs":{"x":"00"}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyring(bad); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad epoch key err = %v", err)
	}
	badHex := filepath.Join(dir, "bad-hex.json")
	if err := os.WriteFile(badHex, []byte(`{"active":1,"epochs":{"1":"zz"}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyring(badHex); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad hex secret err = %v", err)
	}
}

// TestHKDFMatchesRFC5869 holds extract and expand to RFC 5869's test
// case 1 (SHA-256), whose 42-byte output spans two expand blocks.
func TestHKDFMatchesRFC5869(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := unhex("000102030405060708090a0b0c")
	info := unhex("f0f1f2f3f4f5f6f7f8f9")
	prk := hkdfExtract(salt, ikm)
	if want := unhex("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"); !bytes.Equal(prk, want) {
		t.Fatalf("PRK %x, want %x", prk, want)
	}
	okm := Expand(prk, info, 42)
	if want := unhex("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"); !bytes.Equal(okm, want) {
		t.Fatalf("OKM %x, want %x", okm, want)
	}
	if short := Expand(prk, info, 16); !bytes.Equal(short, okm[:16]) {
		t.Fatalf("a 16-byte expand %x is not the 42-byte one's prefix %x", short, okm[:16])
	}
}
