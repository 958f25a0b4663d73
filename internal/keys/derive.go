package keys

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reversecloak/reversecloak/internal/filewatch"
)

// Key derivation replaces key storage: instead of persisting every
// registration's per-level cloak keys, the store records only which master
// epoch the registration was cut under and re-derives the keys on demand
// from
//
//	HKDF(masterSecret[epoch], info = label || epoch || registrationID || level)
//
// with a domain-separated info string per (epoch, registration, level).
// The durable record shrinks to ID + epoch + metadata, backups stop
// carrying key material, and rotating the master secret is an epoch bump
// rather than a re-encryption pass: old registrations keep deriving under
// their recorded epoch, new ones are stamped with the active epoch.
//
// The HKDF here is RFC 5869 over HMAC-SHA256, written out directly on the
// standard library (extract, then expand) so the package has no
// dependencies beyond crypto/hmac.

// MinMasterSecretLen is the minimum accepted master secret length. HKDF
// tolerates any input keying material, but a short secret caps the
// security of every derived key, so the keyring refuses to load one.
const MinMasterSecretLen = 16

// derivedKeyLen is the length of each derived per-level cloak key.
const derivedKeyLen = 32

// hkdfSalt domain-separates the extract step from any other HKDF use of
// the same master secret.
var hkdfSalt = []byte("reversecloak/keys/hkdf-salt/v1")

// infoLabel opens every expand info string; the binary layout after it is
// epoch (big-endian uint32), registration-ID length (big-endian uint16),
// the registration ID bytes, and the level (big-endian uint16).
var infoLabel = []byte("reversecloak/keys/cloak-key/v1")

// hkdfExtract is RFC 5869 section 2.2: PRK = HMAC-Hash(salt, IKM).
func hkdfExtract(salt, secret []byte) []byte {
	mac := hmac.New(sha256.New, salt)
	mac.Write(secret)
	return mac.Sum(nil)
}

// hkdfExpand is RFC 5869 section 2.3, producing length output bytes from
// the extracted PRK under one info string. Each block is summed straight
// into the output, and its counter byte is sliced from blockCounters, so
// a call allocates only the HMAC and the output.
func hkdfExpand(prk, info []byte, length int) []byte {
	mac := hmac.New(sha256.New, prk)
	out := make([]byte, 0, (length+sha256.Size-1)/sha256.Size*sha256.Size)
	for counter := 1; len(out) < length; counter++ {
		if len(out) > 0 { // T(n) = HMAC(PRK, T(n-1) | info | n); T(1) has no T(0)
			mac.Reset()
			mac.Write(out[len(out)-sha256.Size:])
		}
		mac.Write(info)
		mac.Write(blockCounters[counter : counter+1])
		out = mac.Sum(out)
	}
	return out[:length]
}

// blockCounters[i] is i: HKDF-Expand's block counters, one byte each
// (RFC 5869 caps the output at 255 blocks).
var blockCounters = func() (c [256]byte) {
	for i := range c {
		c[i] = byte(i)
	}
	return c
}()

// Expand derives length bytes from one key under an info string (HKDF
// expand, RFC 5869 section 2.3, with key as the PRK): one key, one info
// string per purpose, so a key that drives one thing can key another
// without the two outputs being related.
func Expand(key, info []byte, length int) []byte {
	return hkdfExpand(key, info, length)
}

// deriveInfo builds the domain-separated info string for one
// (epoch, registration, level) triple. Lengths are encoded explicitly so
// no two distinct triples can collide by concatenation.
func deriveInfo(epoch uint32, regID string, level int) []byte {
	info := make([]byte, 0, len(infoLabel)+4+2+len(regID)+2)
	info = append(info, infoLabel...)
	info = binary.BigEndian.AppendUint32(info, epoch)
	info = binary.BigEndian.AppendUint16(info, uint16(len(regID)))
	info = append(info, regID...)
	info = binary.BigEndian.AppendUint16(info, uint16(level))
	return info
}

// Keyring holds the master secrets of every known key epoch and derives
// per-registration key sets from them. It is safe for concurrent use; the
// derive path takes only a read lock and touches no shared mutable state
// beyond the cached per-epoch PRKs.
type Keyring struct {
	mu     sync.RWMutex
	active uint32
	prks   map[uint32][]byte // epoch -> HKDF-extracted PRK

	// gen counts content reloads. Consumers that memoize derived key
	// sets (the server's read-path cache) stamp each cached set with the
	// generation it was derived under and treat a mismatch as a miss, so
	// cached material can never outlive a key-file edit that rotated or
	// removed its epoch.
	gen atomic.Uint64

	// File-backed keyrings reload their source through file
	// (Reload/Watch); keyrings built from in-memory secrets leave it nil.
	path string
	file *filewatch.File
}

// keyFile is the on-disk keyring format: a current epoch plus the hex
// master secret of every epoch that may still have live registrations.
//
//	{"active": 2, "epochs": {"1": "<hex>", "2": "<hex>"}}
type keyFile struct {
	Active uint32            `json:"active"`
	Epochs map[string]string `json:"epochs"`
}

// NewKeyring builds a keyring from in-memory master secrets (tests,
// embedders). epochs maps epoch number to master secret; active selects
// the epoch new registrations are stamped with and must be present.
func NewKeyring(active uint32, epochs map[uint32][]byte) (*Keyring, error) {
	if len(epochs) == 0 {
		return nil, fmt.Errorf("%w: keyring with no epochs", ErrBadKey)
	}
	prks := make(map[uint32][]byte, len(epochs))
	for epoch, secret := range epochs {
		if epoch == 0 {
			return nil, fmt.Errorf("%w: epoch 0 is reserved for stored-key registrations", ErrBadKey)
		}
		if len(secret) < MinMasterSecretLen {
			return nil, fmt.Errorf("%w: epoch %d master secret is %d bytes, need >= %d",
				ErrBadKey, epoch, len(secret), MinMasterSecretLen)
		}
		prks[epoch] = hkdfExtract(hkdfSalt, secret)
	}
	if _, ok := prks[active]; !ok {
		return nil, fmt.Errorf("%w: active epoch %d has no master secret", ErrBadKey, active)
	}
	return &Keyring{active: active, prks: prks}, nil
}

// LoadKeyring reads a keyring from its JSON key file. The returned keyring
// remembers the path: Reload picks up edits, Watch polls for them.
func LoadKeyring(path string) (*Keyring, error) {
	kr := &Keyring{path: path}
	kr.file = filewatch.New(path, kr.install)
	if err := kr.file.Load(); err != nil {
		return nil, err
	}
	return kr, nil
}

// install parses the key file's bytes into the keyring's epoch table.
func (k *Keyring) install(raw []byte) error {
	var kf keyFile
	if err := json.Unmarshal(raw, &kf); err != nil {
		return fmt.Errorf("keys: parsing key file %s: %w", k.path, err)
	}
	epochs := make(map[uint32][]byte, len(kf.Epochs))
	for es, hs := range kf.Epochs {
		e64, err := strconv.ParseUint(es, 10, 32)
		if err != nil {
			return fmt.Errorf("%w: key file epoch %q: %v", ErrBadKey, es, err)
		}
		secret, err := hex.DecodeString(hs)
		if err != nil {
			return fmt.Errorf("%w: key file epoch %s secret: %v", ErrBadKey, es, err)
		}
		epochs[uint32(e64)] = secret
	}
	fresh, err := NewKeyring(kf.Active, epochs)
	if err != nil {
		return fmt.Errorf("keys: key file %s: %w", k.path, err)
	}
	k.mu.Lock()
	k.active = fresh.active
	k.prks = fresh.prks
	k.mu.Unlock()
	k.gen.Add(1)
	return nil
}

// Generation returns the keyring's content generation: it advances every
// time the backing key file is (re)loaded. Keyrings built from in-memory
// secrets stay at generation 0 — their content never changes.
func (k *Keyring) Generation() uint64 { return k.gen.Load() }

// Reload re-reads the backing key file if its mtime changed since the
// last load, returning whether a reload happened. A keyring built with
// NewKeyring has no file and never reloads.
func (k *Keyring) Reload() (bool, error) {
	if k.file == nil {
		return false, nil
	}
	return k.file.Reload()
}

// Watch polls the backing key file every period and reloads it when it
// changes, so an operator's epoch rotation reaches a live server without
// a restart. Reload failures keep the last good keyring and are reported
// through logf, once per bad edit. Close stops the watcher.
func (k *Keyring) Watch(period time.Duration, logf func(format string, args ...any)) {
	if k.file == nil {
		return
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	k.file.Watch(period, func(err error) {
		if err != nil {
			logf("keys: reload of %s failed (keeping previous keyring): %v", k.path, err)
			return
		}
		logf("keys: reloaded %s (active epoch %d)", k.path, k.ActiveEpoch())
	})
}

// Close stops a running Watch loop. It is safe to call on keyrings that
// never watched.
func (k *Keyring) Close() error {
	if k.file == nil {
		return nil
	}
	return k.file.Close()
}

// ActiveEpoch returns the epoch new registrations are stamped with.
func (k *Keyring) ActiveEpoch() uint32 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.active
}

// Epochs returns the known epoch numbers in ascending order.
func (k *Keyring) Epochs() []uint32 {
	k.mu.RLock()
	out := make([]uint32, 0, len(k.prks))
	for e := range k.prks {
		out = append(out, e)
	}
	k.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Has reports whether the keyring holds the master secret of epoch.
func (k *Keyring) Has(epoch uint32) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	_, ok := k.prks[epoch]
	return ok
}

// DeriveSet derives the per-level cloak keys of one registration: levels
// keys of derivedKeyLen bytes each, deterministic in (epoch, regID,
// level) and nothing else. The output is Set-compatible with stored key
// sets, so everything downstream of registration — reduce, grants, policy
// — is oblivious to how the keys came to be.
func (k *Keyring) DeriveSet(epoch uint32, regID string, levels int) (*Set, error) {
	if levels < 1 {
		return nil, fmt.Errorf("%w: need at least one level", ErrLevelRange)
	}
	if regID == "" {
		return nil, fmt.Errorf("%w: derive for empty registration id", ErrBadKey)
	}
	if len(regID) > 0xffff {
		return nil, fmt.Errorf("%w: registration id of %d bytes", ErrBadKey, len(regID))
	}
	k.mu.RLock()
	prk, ok := k.prks[epoch]
	k.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: no master secret for key epoch %d", ErrUnknownEpoch, epoch)
	}
	ks := &Set{keys: make([][]byte, levels)}
	for lv := 1; lv <= levels; lv++ {
		ks.keys[lv-1] = hkdfExpand(prk, deriveInfo(epoch, regID, lv), derivedKeyLen)
	}
	return ks, nil
}
