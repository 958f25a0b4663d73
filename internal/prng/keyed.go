package prng

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Keyed is HMAC-SHA256 under one key, reused across messages: after the
// first message it allocates nothing, where Derive and Stream.At pay a
// fresh hmac.New per call. It computes exactly their bytes — Sum(m) is
// Derive(key, m), and a Keyed over a stream's key (Derive(key, label))
// draws that stream — so hot loops (the cloak engine's reversal search,
// step tags, every Cursor) use it without changing a published bit.
//
// A Keyed is NOT safe for concurrent use; it is scratch owned by one
// caller.
type Keyed struct {
	mac hash.Hash
	sum [sha256.Size]byte
	idx [8]byte
}

// NewKeyed returns the reusable MAC for key.
func NewKeyed(key []byte) *Keyed {
	return &Keyed{mac: hmac.New(sha256.New, key)}
}

// Sum returns HMAC-SHA256(key, msg). The result is valid until the next
// call on k.
func (k *Keyed) Sum(msg []byte) []byte {
	k.mac.Reset()
	k.mac.Write(msg)
	return k.mac.Sum(k.sum[:0])
}

// Uint64 returns draw i of the stream whose key k holds: the value
// Stream.At(i) returns for New(key, label) when k = NewKeyed(Derive(key,
// label)).
func (k *Keyed) Uint64(i uint64) uint64 {
	binary.BigEndian.PutUint64(k.idx[:], i)
	return binary.BigEndian.Uint64(k.Sum(k.idx[:]))
}
