// Package baseline implements the comparison schemes the benchmark harness
// measures ReverseCloak against:
//
//   - RandomExpansion: conventional single-level, unidirectional road-network
//     cloaking in the style of Wang et al. [9] — the same grow-until-(k,l)
//     expansion but with unkeyed randomness, so the cloak can never be
//     reduced. It prices the cost of reversibility.
//   - Naive: the strawman reversible scheme — ship the per-level segment
//     lists, encrypted under the level keys, alongside the region. It
//     de-anonymizes trivially but pays linear payload growth and reveals the
//     level sizes' structure to anyone, quantifying what ReverseCloak's
//     keyed in-place reversal saves.
package baseline

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Errors returned by the baselines.
var (
	// ErrFailed reports that a baseline could not satisfy its requirement.
	ErrFailed = errors.New("baseline: cloaking failed")
	// ErrBadPayload reports a malformed naive-scheme payload.
	ErrBadPayload = errors.New("baseline: bad payload")
)

// RandomExpansion grows a connected segment region from the user's segment
// until it covers at least lv.K users and lv.L segments within the spatial
// tolerance, choosing uniformly among candidates. The result is a plain
// set: nothing about the insertion order can be recovered, which is exactly
// the irreversibility ReverseCloak removes.
func RandomExpansion(
	g *roadnet.Graph,
	density cloak.DensityFunc,
	user roadnet.SegmentID,
	lv profile.Level,
	seedKey []byte,
) ([]roadnet.SegmentID, error) {
	if !g.HasSegment(user) {
		return nil, fmt.Errorf("%w: unknown segment %d", ErrFailed, user)
	}
	cur := prng.NewCursor(prng.New(seedKey, "baseline/random-expansion"))
	members := map[roadnet.SegmentID]bool{user: true}
	order := []roadnet.SegmentID{user}
	users := density(user)
	box := g.SegmentBounds(user)

	for users < lv.K || len(order) < lv.L {
		// Candidates: adjacent, absent, within tolerance.
		var can []roadnet.SegmentID
		seen := map[roadnet.SegmentID]bool{}
		for m := range members {
			for _, nb := range g.Neighbors(m) {
				if members[nb] || seen[nb] {
					continue
				}
				seen[nb] = true
				if lv.SigmaS > 0 && box.Union(g.SegmentBounds(nb)).Diagonal() > lv.SigmaS {
					continue
				}
				can = append(can, nb)
			}
		}
		if len(can) == 0 {
			return nil, fmt.Errorf("%w: expansion stuck at %d segments / %d users",
				ErrFailed, len(order), users)
		}
		g.SortCanonical(can)
		next := can[cur.Intn(len(can))]
		members[next] = true
		order = append(order, next)
		users += density(next)
		box = box.Union(g.SegmentBounds(next))
	}
	return order, nil
}

// NaivePayload is the published artifact of the strawman reversible scheme:
// the full region plus one encrypted blob per level holding that level's
// segment list.
type NaivePayload struct {
	Segments []roadnet.SegmentID `json:"segments"`
	// Blobs[i] is the AES-GCM encryption of level (i+1)'s segment list.
	Blobs [][]byte `json:"blobs"`
}

// Bytes returns the serialized payload size, the metric compared against
// ReverseCloak's constant-size metadata in experiment E13.
func (p *NaivePayload) Bytes() int {
	raw, err := json.Marshal(p)
	if err != nil {
		return 0
	}
	return len(raw)
}

// NaiveAnonymize produces a multi-level cloak in the strawman scheme: it
// expands level by level exactly like RandomExpansion and encrypts each
// level's added-segment list under the level key.
func NaiveAnonymize(
	g *roadnet.Graph,
	density cloak.DensityFunc,
	user roadnet.SegmentID,
	prof profile.Profile,
	levelKeys [][]byte,
) (*NaivePayload, error) {
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	if len(levelKeys) != len(prof.Levels) {
		return nil, fmt.Errorf("%w: %d keys for %d levels", ErrFailed,
			len(levelKeys), len(prof.Levels))
	}
	members := []roadnet.SegmentID{user}
	payload := &NaivePayload{}
	for li, lv := range prof.Levels {
		full, err := expandFrom(g, density, members, lv, levelKeys[li])
		if err != nil {
			return nil, err
		}
		added := full[len(members):]
		blob, err := sealSegments(levelKeys[li], li+1, added)
		if err != nil {
			return nil, err
		}
		payload.Blobs = append(payload.Blobs, blob)
		members = full
	}
	payload.Segments = append([]roadnet.SegmentID(nil), members...)
	return payload, nil
}

// NaiveDeanonymize strips levels down to toLevel by decrypting and removing
// each level's stored segment list.
func NaiveDeanonymize(p *NaivePayload, levelKeys map[int][]byte, toLevel int) ([]roadnet.SegmentID, error) {
	if toLevel < 0 || toLevel > len(p.Blobs) {
		return nil, fmt.Errorf("%w: level %d of %d", ErrBadPayload, toLevel, len(p.Blobs))
	}
	members := make(map[roadnet.SegmentID]bool, len(p.Segments))
	for _, s := range p.Segments {
		members[s] = true
	}
	for lv := len(p.Blobs); lv > toLevel; lv-- {
		key, ok := levelKeys[lv]
		if !ok {
			return nil, fmt.Errorf("%w: missing key for level %d", ErrBadPayload, lv)
		}
		added, err := openSegments(key, lv, p.Blobs[lv-1])
		if err != nil {
			return nil, err
		}
		for _, s := range added {
			if !members[s] {
				return nil, fmt.Errorf("%w: level %d names absent segment %d", ErrBadPayload, lv, s)
			}
			delete(members, s)
		}
	}
	out := make([]roadnet.SegmentID, 0, len(members))
	for s := range members {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// expandFrom grows members (copied) until lv is met, keyed-uniform choice.
func expandFrom(
	g *roadnet.Graph,
	density cloak.DensityFunc,
	members []roadnet.SegmentID,
	lv profile.Level,
	key []byte,
) ([]roadnet.SegmentID, error) {
	cur := prng.NewCursor(prng.New(key, "baseline/naive-expand"))
	set := make(map[roadnet.SegmentID]bool, len(members))
	order := append([]roadnet.SegmentID(nil), members...)
	users := 0
	var box geom.BBox
	for _, m := range members {
		set[m] = true
		users += density(m)
		box = box.Union(g.SegmentBounds(m))
	}
	for users < lv.K || len(order) < lv.L {
		var can []roadnet.SegmentID
		seen := map[roadnet.SegmentID]bool{}
		for m := range set {
			for _, nb := range g.Neighbors(m) {
				if set[nb] || seen[nb] {
					continue
				}
				seen[nb] = true
				if lv.SigmaS > 0 && box.Union(g.SegmentBounds(nb)).Diagonal() > lv.SigmaS {
					continue
				}
				can = append(can, nb)
			}
		}
		if len(can) == 0 {
			return nil, fmt.Errorf("%w: naive expansion stuck", ErrFailed)
		}
		g.SortCanonical(can)
		next := can[cur.Intn(len(can))]
		set[next] = true
		order = append(order, next)
		users += density(next)
		box = box.Union(g.SegmentBounds(next))
	}
	return order, nil
}

// sealSegments encrypts a segment list under an AES-GCM key derived from
// the level key.
func sealSegments(key []byte, level int, segs []roadnet.SegmentID) ([]byte, error) {
	block, err := aes.NewCipher(prng.Derive(key, "baseline/naive-aes")[:32])
	if err != nil {
		return nil, fmt.Errorf("baseline: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("baseline: gcm: %w", err)
	}
	plain := make([]byte, 4*len(segs))
	for i, s := range segs {
		binary.BigEndian.PutUint32(plain[4*i:], uint32(s))
	}
	// Deterministic nonce derived from the level index is safe here: each
	// (key, level) pair encrypts exactly one message.
	nonce := prng.Derive(key, fmt.Sprintf("baseline/nonce/%d", level))[:gcm.NonceSize()]
	return gcm.Seal(nonce, nonce, plain, nil), nil
}

// openSegments reverses sealSegments.
func openSegments(key []byte, level int, blob []byte) ([]roadnet.SegmentID, error) {
	block, err := aes.NewCipher(prng.Derive(key, "baseline/naive-aes")[:32])
	if err != nil {
		return nil, fmt.Errorf("baseline: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("baseline: gcm: %w", err)
	}
	if len(blob) < gcm.NonceSize() {
		return nil, fmt.Errorf("%w: blob too short", ErrBadPayload)
	}
	nonce, sealed := blob[:gcm.NonceSize()], blob[gcm.NonceSize():]
	plain, err := gcm.Open(nil, nonce, sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if len(plain)%4 != 0 {
		return nil, fmt.Errorf("%w: ragged plaintext", ErrBadPayload)
	}
	segs := make([]roadnet.SegmentID, len(plain)/4)
	for i := range segs {
		segs[i] = roadnet.SegmentID(binary.BigEndian.Uint32(plain[4*i:]))
	}
	return segs, nil
}
