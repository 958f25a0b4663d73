package anonymizer

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
)

// The write-ahead log is a flat sequence of CRC-framed records:
//
//	offset  size  field
//	0       4     payload length n (little-endian uint32)
//	4       4     CRC-32C of the payload (little-endian uint32)
//	8       n     payload (JSON-encoded walRecord)
//
// The payload reuses the internal/cloak JSON codec: a region inside a
// record is exactly the CloakedRegion wire format the rest of the system
// already pins with round-trip tests. The CRC frame is what makes replay
// safe against torn writes: a record whose length or checksum does not add
// up marks the end of the usable log, and everything before it is intact.

// ErrCorruptLog reports a WAL or snapshot record that failed its CRC or
// framing checks somewhere other than the tail (tail damage is expected
// after a crash and is dropped silently; see readRecords).
var ErrCorruptLog = errors.New("anonymizer: corrupt log record")

// walHeaderSize is the fixed frame prefix: length + CRC.
const walHeaderSize = 8

// maxWalRecordSize bounds one record's payload (64 MiB). A length field
// beyond it is treated as frame corruption rather than an allocation
// request: a flipped high bit must not make recovery attempt a 3 GiB read.
const maxWalRecordSize = 64 << 20

// castagnoli is the CRC-32C table, the polynomial with hardware support on
// both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recType discriminates WAL record kinds.
type recType string

// WAL record kinds. Snapshot files reuse the same framing: a snapHeader
// record first, then one register record per live registration.
const (
	// recRegister introduces a registration (also used for snapshot
	// entries, where it carries the then-current trust grants).
	recRegister recType = "register"
	// recTrust records a SetTrust mutation of a registration's policy.
	recTrust recType = "trust"
	// recDeregister removes a registration.
	recDeregister recType = "deregister"
	// recExpire removes a registration whose TTL elapsed (appended by the
	// GC sweeper, idempotent on replay).
	recExpire recType = "expire"
	// recTouch renews a registration's lease with a new expiry instant.
	recTouch recType = "touch"
	// recSnapHeader opens a snapshot file and carries the ID allocator
	// position.
	recSnapHeader recType = "snapshot"
)

// walRecord is the JSON payload of one log or snapshot record. Fields are
// populated per Type; unused fields stay zero and are dropped by omitempty
// where zero is never meaningful.
type walRecord struct {
	Type recType `json:"type"`
	// ID is the region ID the record applies to (all types but snapshot).
	ID string `json:"id,omitempty"`
	// Register payload: the published region, the per-level keys in level
	// order (hex), the policy's default level and its explicit grants.
	Region  *cloak.CloakedRegion `json:"region,omitempty"`
	Keys    []string             `json:"keys,omitempty"`
	Default int                  `json:"default"`
	Grants  map[string]int       `json:"grants,omitempty"`
	// Derived-key register payload (schema v3): instead of key material the
	// record carries a key reference — the master-key epoch the registration
	// was cut under and its level count. The keys are re-derived from the
	// keyring as HKDF(epoch, ID, level). Exactly one of Keys and
	// KeyEpoch/KeyLevels is populated; a record carrying both is corrupt.
	KeyEpoch  uint32 `json:"key_epoch,omitempty"`
	KeyLevels int    `json:"key_levels,omitempty"`
	// Sealed is the registration's sealed levels (seal.go); omitted for
	// registrations without them. Its length is fixed by the region's
	// step counts.
	Sealed []byte `json:"sealed,omitempty"`
	// ExpiresAt is the registration's expiry instant in unix nanoseconds;
	// 0 (omitted) means the registration never expires.
	ExpiresAt int64 `json:"expires_at,omitempty"`
	// Trust payload. ToLevel has no omitempty: level 0 (full
	// de-anonymization) is a meaningful grant.
	Requester string `json:"requester,omitempty"`
	ToLevel   int    `json:"to_level"`
	// Snapshot header payload: the next-ID counter at snapshot time, so
	// recovery never re-issues an ID that was ever handed out, and the LSN
	// the snapshot covers: every record of the shard at or below it is
	// folded in. Snapshots written before LSNs existed decode with LSN 0,
	// which is right for them — the log tails archived beside them hold
	// only records after the snapshot.
	NextID uint64 `json:"next_id,omitempty"`
	LSN    uint64 `json:"lsn,omitempty"`
}

// appendFrame frames an opaque payload into buf (reusing its capacity)
// and returns the encoded frame ready to be written in one Write call.
// The WAL, snapshots and backup archives all share this framing.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > maxWalRecordSize {
		return nil, fmt.Errorf("anonymizer: record of %d bytes exceeds frame limit", len(payload))
	}
	buf = buf[:0]
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	return buf, nil
}

// appendRecord frames rec into buf (reusing its capacity) and returns the
// encoded frame ready to be written in one Write call.
func appendRecord(buf []byte, rec *walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("anonymizer: encoding wal record: %w", err)
	}
	return appendFrame(buf, payload)
}

// readFrames decodes CRC frames from r, calling fn with each intact
// payload (valid only for the duration of the call; the buffer is
// reused). It returns the byte offset just past the last intact frame. A
// clean EOF on a frame boundary returns a nil error; a torn or corrupt
// tail (short header, short payload, impossible length, CRC mismatch)
// stops the scan and returns the offset with errTornTail so the caller
// can truncate the file back to its last consistent prefix — or treat the
// archive as invalid. An error from fn aborts immediately and is returned
// as-is.
func readFrames(r io.Reader, fn func(payload []byte) error) (int64, error) {
	var (
		offset int64
		hdr    [walHeaderSize]byte
		buf    []byte
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return offset, nil // clean end on a frame boundary
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return offset, errTornTail // mid-header EOF
			}
			// A real read error (EIO, ...) is not a torn tail: truncating
			// here would destroy acknowledged records. Surface it.
			return offset, fmt.Errorf("anonymizer: log read: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxWalRecordSize {
			return offset, errTornTail
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return offset, errTornTail // mid-payload EOF
			}
			return offset, fmt.Errorf("anonymizer: log read: %w", err)
		}
		if crc32.Checksum(buf, castagnoli) != want {
			return offset, errTornTail
		}
		if err := fn(buf); err != nil {
			return offset, err
		}
		offset += walHeaderSize + int64(n)
	}
}

// readRecords decodes WAL/snapshot frames from r, calling fn for each
// intact record. Framing semantics are readFrames'; an intact frame whose
// payload is not our JSON is corruption (or a format break), not a torn
// write, and aborts with ErrCorruptLog.
func readRecords(r io.Reader, fn func(*walRecord) error) (int64, error) {
	return readFrames(r, func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptLog, err)
		}
		return fn(&rec)
	})
}

// errTornTail reports that a scan hit a torn or checksum-failing tail; the
// prefix before the returned offset is intact.
var errTornTail = errors.New("anonymizer: torn log tail")

// registerRecord captures a registration (and the current state of its
// policy) as a WAL record. Stored-key registrations journal their key
// material; derived registrations journal only the key reference (epoch +
// level count) — the record carries no key bytes.
func registerRecord(id string, reg *Registration) *walRecord {
	rec := &walRecord{
		Type:      recRegister,
		ID:        id,
		Region:    reg.region,
		Default:   reg.policy.DefaultLevel(),
		Grants:    reg.policy.Grants(),
		ExpiresAt: reg.expiresAt,
		Sealed:    reg.sealed,
	}
	if reg.derived() {
		rec.KeyEpoch = reg.keyEpoch
		rec.KeyLevels = reg.keyLevels
	} else {
		rec.Keys = reg.keySet.EncodeHex()
	}
	return rec
}

// recordFromMutation encodes a lifecycle mutation as its WAL record — the
// journaling half of the event-sourced pipeline. Only the four mutation
// ops appear here; snapshot headers are framing, not mutations.
func recordFromMutation(m *Mutation) *walRecord {
	switch m.Op {
	case MutRegister:
		return registerRecord(m.ID, m.Reg)
	case MutSetTrust:
		return &walRecord{Type: recTrust, ID: m.ID, Requester: m.Requester, ToLevel: m.ToLevel}
	case MutDeregister:
		return &walRecord{Type: recDeregister, ID: m.ID}
	case MutExpire:
		return &walRecord{Type: recExpire, ID: m.ID}
	case MutTouch:
		return &walRecord{Type: recTouch, ID: m.ID, ExpiresAt: m.ExpiresAt}
	default:
		// Unreachable: mutations are built by the stores, never parsed.
		panic(fmt.Sprintf("anonymizer: no record encoding for mutation %v", m.Op))
	}
}

// mutationFromRecord decodes a WAL record back into the mutation it
// journaled, so replay can route through the same apply path as the live
// stores. Snapshot headers are not mutations and are rejected. kr resolves
// derived-key register records (schema v3); it may be nil when the log is
// known to carry only stored-key records.
func mutationFromRecord(rec *walRecord, kr *keys.Keyring) (*Mutation, error) {
	switch rec.Type {
	case recRegister:
		reg, err := decodeRegistration(rec, kr)
		if err != nil {
			return nil, err
		}
		return &Mutation{Op: MutRegister, ID: rec.ID, Reg: reg}, nil
	case recTrust:
		return &Mutation{Op: MutSetTrust, ID: rec.ID, Requester: rec.Requester, ToLevel: rec.ToLevel}, nil
	case recDeregister:
		return &Mutation{Op: MutDeregister, ID: rec.ID}, nil
	case recExpire:
		return &Mutation{Op: MutExpire, ID: rec.ID}, nil
	case recTouch:
		return &Mutation{Op: MutTouch, ID: rec.ID, ExpiresAt: rec.ExpiresAt}, nil
	default:
		return nil, fmt.Errorf("%w: unexpected %q record", ErrCorruptLog, rec.Type)
	}
}

// decodeRegistration rebuilds a Registration from a register record —
// stored key material or a derived-key reference resolved through kr.
func decodeRegistration(rec *walRecord, kr *keys.Keyring) (*Registration, error) {
	if rec.Region == nil {
		return nil, fmt.Errorf("%w: register record %q without region",
			ErrCorruptLog, rec.ID)
	}
	if len(rec.Sealed) != 0 && !sealedFits(rec.Region.Levels, rec.Sealed) {
		return nil, fmt.Errorf("%w: register record %q carries %d sealed bytes, its region's levels take another length",
			ErrCorruptLog, rec.ID, len(rec.Sealed))
	}
	derivedRef := rec.KeyEpoch != 0 || rec.KeyLevels != 0
	if derivedRef && len(rec.Keys) != 0 {
		return nil, fmt.Errorf("%w: register record %q carries both key material and a key reference",
			ErrCorruptLog, rec.ID)
	}
	var (
		reg    *Registration
		levels int
	)
	switch {
	case derivedRef:
		if rec.KeyEpoch == 0 || rec.KeyLevels < 1 {
			return nil, fmt.Errorf("%w: register record %q key reference epoch %d levels %d",
				ErrCorruptLog, rec.ID, rec.KeyEpoch, rec.KeyLevels)
		}
		if rec.ID == "" {
			return nil, fmt.Errorf("%w: derived register record without id", ErrCorruptLog)
		}
		if kr == nil {
			return nil, fmt.Errorf("anonymizer: register record %q needs a master keyring (open the store with WithKeyring)", rec.ID)
		}
		if !kr.Has(rec.KeyEpoch) {
			return nil, fmt.Errorf("anonymizer: register record %q: %w (epoch %d)",
				rec.ID, keys.ErrUnknownEpoch, rec.KeyEpoch)
		}
		reg = &Registration{
			region: rec.Region, keyring: kr, keyEpoch: rec.KeyEpoch,
			keyID: rec.ID, keyLevels: rec.KeyLevels, expiresAt: rec.ExpiresAt,
		}
		levels = rec.KeyLevels
	case len(rec.Keys) != 0:
		raw := make([][]byte, len(rec.Keys))
		for i, e := range rec.Keys {
			k, err := hex.DecodeString(e)
			if err != nil {
				return nil, fmt.Errorf("%w: register record %q key %d: %v",
					ErrCorruptLog, rec.ID, i+1, err)
			}
			raw[i] = k
		}
		ks, err := keys.FromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: register record %q: %v", ErrCorruptLog, rec.ID, err)
		}
		reg = &Registration{region: rec.Region, keySet: ks, expiresAt: rec.ExpiresAt}
		levels = ks.Levels()
	default:
		return nil, fmt.Errorf("%w: register record %q without keys or key reference",
			ErrCorruptLog, rec.ID)
	}
	policy, err := accessctl.NewPolicy(levels, rec.Default)
	if err != nil {
		return nil, fmt.Errorf("%w: register record %q: %v", ErrCorruptLog, rec.ID, err)
	}
	for requester, lv := range rec.Grants {
		if err := policy.SetTrust(requester, lv); err != nil {
			return nil, fmt.Errorf("%w: register record %q grant %q: %v",
				ErrCorruptLog, rec.ID, requester, err)
		}
	}
	reg.policy = policy
	if len(rec.Sealed) != 0 {
		reg.sealed = rec.Sealed
	}
	return reg, nil
}
