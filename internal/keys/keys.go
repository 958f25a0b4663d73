// Package keys manages the shared secret anonymization keys of
// ReverseCloak.
//
// Each privacy level L^i is associated with a shared secret key Key_i that
// drives the pseudo-random segment selection for that level. Data requesters
// holding the keys of the upper levels can selectively peel those levels
// off; without a key, the corresponding level is irreversible. The package
// provides the toolkit's "Auto key generation" plus hex import/export for
// key distribution.
package keys

import (
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/reversecloak/reversecloak/internal/prng"
)

// Errors returned by key operations.
var (
	// ErrBadKey reports a malformed key encoding.
	ErrBadKey = errors.New("keys: bad key")
	// ErrLevelRange reports a privacy level outside the key set.
	ErrLevelRange = errors.New("keys: level out of range")
	// ErrUnknownEpoch reports a derivation request against a key epoch the
	// keyring holds no master secret for.
	ErrUnknownEpoch = errors.New("keys: unknown key epoch")
)

// Set holds the per-level anonymization keys Key_1 .. Key_{N-1}.
// Level indices are 1-based to match the paper's notation; level 0 has no
// key because it is never exposed directly.
type Set struct {
	keys [][]byte
}

// AutoGenerate creates a fresh Set with `levels` independent random keys,
// implementing the Anonymizer GUI's "Auto key generation" function.
func AutoGenerate(levels int) (*Set, error) {
	if levels < 1 {
		return nil, fmt.Errorf("%w: need at least one level", ErrLevelRange)
	}
	ks := &Set{keys: make([][]byte, levels)}
	for i := range ks.keys {
		k, err := prng.NewKey()
		if err != nil {
			return nil, fmt.Errorf("keys: generating level %d: %w", i+1, err)
		}
		ks.keys[i] = k
	}
	return ks, nil
}

// FromBytes builds a Set from raw key material, one key per level in level
// order (Key_1 first). Keys must be non-empty; they are copied.
func FromBytes(raw [][]byte) (*Set, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: no keys", ErrLevelRange)
	}
	ks := &Set{keys: make([][]byte, len(raw))}
	for i, k := range raw {
		if len(k) == 0 {
			return nil, fmt.Errorf("%w: empty key for level %d", ErrBadKey, i+1)
		}
		ks.keys[i] = append([]byte(nil), k...)
	}
	return ks, nil
}

// Levels returns the number of keyed levels (N-1).
func (s *Set) Levels() int { return len(s.keys) }

// Level returns the key for privacy level i (1-based). The returned slice
// is a copy.
func (s *Set) Level(i int) ([]byte, error) {
	if i < 1 || i > len(s.keys) {
		return nil, fmt.Errorf("%w: level %d of %d", ErrLevelRange, i, len(s.keys))
	}
	return append([]byte(nil), s.keys[i-1]...), nil
}

// All returns copies of all keys in level order.
func (s *Set) All() [][]byte {
	out := make([][]byte, len(s.keys))
	for i, k := range s.keys {
		out[i] = append([]byte(nil), k...)
	}
	return out
}

// Grant returns the key map a requester entitled down to `toLevel` needs:
// the keys of levels toLevel+1 .. N-1, keyed by level index. Granting down
// to level 0 hands over every key (full de-anonymization).
func (s *Set) Grant(toLevel int) (map[int][]byte, error) {
	if toLevel < 0 || toLevel > len(s.keys) {
		return nil, fmt.Errorf("%w: grant to level %d of %d", ErrLevelRange, toLevel, len(s.keys))
	}
	out := make(map[int][]byte, len(s.keys)-toLevel)
	for lv := toLevel + 1; lv <= len(s.keys); lv++ {
		out[lv] = append([]byte(nil), s.keys[lv-1]...)
	}
	return out, nil
}

// EncodeHex exports the keys as hex strings for distribution.
func (s *Set) EncodeHex() []string {
	out := make([]string, len(s.keys))
	for i, k := range s.keys {
		out[i] = hex.EncodeToString(k)
	}
	return out
}

// DecodeHex imports keys exported by EncodeHex.
func DecodeHex(encoded []string) (*Set, error) {
	raw := make([][]byte, len(encoded))
	for i, e := range encoded {
		k, err := hex.DecodeString(e)
		if err != nil {
			return nil, fmt.Errorf("%w: level %d: %v", ErrBadKey, i+1, err)
		}
		raw[i] = k
	}
	return FromBytes(raw)
}
