// Package prng implements the keyed pseudo-random streams that drive
// ReverseCloak's reversible segment selection.
//
// The paper requires that "the secret key is used to generate a sequence of
// pseudo-random numbers and each pseudo-random number controls the selection
// of one transition", and that the i-th number R_i drives both the i-th
// forward transition and the (n-i)-th backward transition. Anonymizer and
// de-anonymizer must therefore reproduce the identical sequence from the
// shared key, and the de-anonymizer must be able to revisit arbitrary
// positions while searching backward. Streams here are consequently
// *stateless*: draw i is HMAC-SHA256(streamKey, i), giving O(1) random access
// with cryptographic indistinguishability from uniform for anyone without
// the key.
package prng

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// KeySize is the size in bytes of stream keys produced by NewKey and Derive.
const KeySize = sha256.Size

// NewKey returns a fresh random key from the operating system entropy source.
// It corresponds to the toolkit's "Auto key generation" function.
func NewKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("prng: generating key: %w", err)
	}
	return key, nil
}

// Derive deterministically derives a sub-key from key bound to label.
// Distinct labels yield independent streams; the same (key, label) pair
// always yields the same sub-key.
func Derive(key []byte, label string) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// Stream is a deterministic, randomly accessible sequence of uint64 draws
// keyed by a secret. The zero value is not usable; construct with New.
//
// Stream is safe for concurrent use: all methods are read-only after
// construction.
type Stream struct {
	key []byte
}

// New returns the stream for key bound to label. The label namespaces
// independent uses of one secret (for example one stream per privacy level
// and retry salt), so reusing a key across levels never reuses draws.
func New(key []byte, label string) *Stream {
	return &Stream{key: Derive(key, label)}
}

// At returns the i-th draw of the stream. Calls with the same index always
// return the same value; distinct indices are computationally independent.
func (s *Stream) At(i uint64) uint64 {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], i)
	mac := hmac.New(sha256.New, s.key)
	mac.Write(buf[:])
	sum := mac.Sum(nil)
	return binary.BigEndian.Uint64(sum[:8])
}

// Cursor is a stateful reader over a Stream for consumers that want
// sequential draws (workload generation, shuffles). It holds one reusable
// MAC over the stream's key, so a draw allocates nothing and returns
// exactly Stream.At's value. It is not safe for concurrent use.
type Cursor struct {
	mac  *Keyed
	next uint64
}

// NewCursor returns a cursor positioned at draw 0 of stream.
func NewCursor(stream *Stream) *Cursor {
	return &Cursor{mac: NewKeyed(stream.key)}
}

// Seek repositions the cursor at draw i.
func (c *Cursor) Seek(i uint64) { c.next = i }

// Uint64 returns the next draw and advances the cursor.
func (c *Cursor) Uint64() uint64 {
	v := c.mac.Uint64(c.next)
	c.next++
	return v
}

// Intn returns an unbiased integer in [0, n) using rejection sampling,
// advancing the cursor by at least one draw. n must be positive.
func (c *Cursor) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("prng: Intn with non-positive n=%d", n))
	}
	max := uint64(n)
	// Largest multiple of n that fits in a uint64; draws at or above it are
	// rejected so the remainder is exactly uniform.
	limit := (^uint64(0) / max) * max
	for {
		if v := c.Uint64(); v < limit {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform float64 in [0,1) and advances the cursor.
func (c *Cursor) Float64() float64 {
	return float64(c.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate via the Box-Muller
// transform, advancing the cursor by two draws. The trace generator uses
// this for Gaussian car placement.
func (c *Cursor) NormFloat64() float64 {
	// Box-Muller: u1 in (0,1], u2 in [0,1).
	u1 := 1.0 - c.Float64()
	u2 := c.Float64()
	return boxMuller(u1, u2)
}

// Perm returns a uniform random permutation of [0,n).
func (c *Cursor) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	c.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (c *Cursor) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := c.Intn(i + 1)
		swap(i, j)
	}
}
