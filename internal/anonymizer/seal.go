package anonymizer

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Sealed levels. At register the server holds what a reader without it
// must search for: which members each level added (the engine's Trace).
// It keeps that for level i as a bitmap over the level-i region's members
// in ascending ID — membership, not the order within the level — sealed
// with AES-GCM under a key HKDF-expanded from Key_i. A server-side reduce
// opens the levels it peels and filters the member list; nothing is
// searched, and the output is Deanonymize's byte for byte. Opening level
// i needs Key_i, exactly what peeling it needs. docs/ARCHITECTURE.md,
// "Sealed levels", has the argument.
//
// A registration's sealed bytes are the levels' blobs in level order,
// each ⌈n_i/8⌉ bytes of bitmap plus the GCM tag, where
// n_i = 1 + Σ_{l≤i} Steps_l: the public step counts fix every length, so
// the bytes need no framing.

// sealInfo is the HKDF info string of a level-seal key: its own, so the
// seal key is unrelated to the cloak key it is expanded from. Key_i is
// already unique to one level of one registration, so the info string
// needs neither.
var sealInfo = []byte("reversecloak/anonymizer/level-seal/v1")

// sealKeyLen is a level-seal key's length: AES-128.
const sealKeyLen = 16

// sealTagLen is the GCM tag each sealed level carries.
const sealTagLen = 16

// sealNonce is all zero. Each level-seal key is expanded from one
// registration's key of one level and seals exactly one message, the
// level's bitmap, once: no key ever meets the nonce twice.
var sealNonce [12]byte

// errSealMismatch reports sealed levels that do not fit their region,
// or that reduce to something other than the engine's search.
var errSealMismatch = errors.New("anonymizer: sealed levels disagree with the region")

// maxSealMembers bounds a sealed level's member count: a bitmap over more
// members than this could not fit in one log record.
const maxSealMembers = 8 * maxWalRecordSize

// sealedSpan locates level lv's blob (1-based) among a region's sealed
// levels: the member count n its bitmap covers and its byte range. ok is
// false for step counts no sealed region can have.
func sealedSpan(levels []cloak.LevelMeta, lv int) (n, off, end int, ok bool) {
	n = 1
	for i := 0; i < lv; i++ {
		steps := levels[i].Steps
		if steps < 0 || steps > maxSealMembers-n {
			return 0, 0, 0, false
		}
		n += steps
		off, end = end, end+(n+7)/8+sealTagLen
	}
	return n, off, end, true
}

// sealedFits reports whether sealed is exactly as long as the sealed
// levels of a region with these levels.
func sealedFits(levels []cloak.LevelMeta, sealed []byte) bool {
	_, _, end, ok := sealedSpan(levels, len(levels))
	return ok && end == len(sealed)
}

// levelAEAD returns the cipher that seals a level under the level's key.
func levelAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(keys.Expand(key, sealInfo, sealKeyLen))
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// sealLevels seals, for every level of a region the engine just made,
// which members the level added (tr.LevelSeqs), each under its level's
// key (levelKeys[i] is Key_{i+1}).
func sealLevels(region *cloak.CloakedRegion, tr *cloak.Trace, levelKeys [][]byte) ([]byte, error) {
	top := region.PrivacyLevel()
	if len(tr.LevelSeqs) != top || len(levelKeys) != top {
		return nil, fmt.Errorf("%w: %d levels, %d traced, %d keys",
			errSealMismatch, top, len(tr.LevelSeqs), len(levelKeys))
	}
	_, _, total, ok := sealedSpan(region.Levels, top)
	if !ok {
		return nil, fmt.Errorf("%w: impossible step counts", errSealMismatch)
	}
	out := make([]byte, total)
	members, scratch := region.Segments, []roadnet.SegmentID(nil)
	for lv := top; lv >= 1; lv-- {
		n, off, _, _ := sealedSpan(region.Levels, lv)
		added := tr.LevelSeqs[lv-1]
		if len(members) != n || len(added) != region.Levels[lv-1].Steps {
			return nil, fmt.Errorf("%w: level %d", errSealMismatch, lv)
		}
		bitmap := out[off : off+(n+7)/8]
		for _, id := range added {
			j, found := slices.BinarySearch(members, id)
			if !found || bitmap[j/8]&(1<<(j%8)) != 0 {
				return nil, fmt.Errorf("%w: level %d adds segment %d twice or outside the region",
					errSealMismatch, lv, id)
			}
			bitmap[j/8] |= 1 << (j % 8)
		}
		if lv > 1 { // the level below needs its members; the region's stay as they are
			if scratch == nil {
				scratch = make([]roadnet.SegmentID, 0, n)
			}
			members = keepUnmarked(scratch[:0], members, bitmap)
		}
		aead, err := levelAEAD(levelKeys[lv-1])
		if err != nil {
			return nil, err
		}
		aead.Seal(bitmap[:0], sealNonce[:], bitmap, nil)
	}
	return out, nil
}

// keepUnmarked appends to dst the members whose bits bitmap leaves
// clear. dst may be members[:0]: writes never overtake reads.
func keepUnmarked(dst, members []roadnet.SegmentID, bitmap []byte) []roadnet.SegmentID {
	for j, id := range members {
		if bitmap[j/8]&(1<<(j%8)) == 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// openReduce peels base — the registration's region, or a finer
// reduction of it — down to target by opening the sealed levels
// base.PrivacyLevel()..target+1 with the granted keys. ok is false when a
// level does not open, or what it opens to does not fit the region; the
// caller then searches.
func (r *Registration) openReduce(base *cloak.CloakedRegion, grant map[int][]byte, target int) (*cloak.CloakedRegion, bool) {
	cur := base.PrivacyLevel()
	if !sealedFits(r.region.Levels, r.sealed) || cur > len(r.region.Levels) {
		return nil, false
	}
	n, _, _, _ := sealedSpan(r.region.Levels, cur)
	if len(base.Segments) != n {
		return nil, false
	}
	members := slices.Clone(base.Segments)
	scratch := make([]byte, 0, (n+7)/8)
	for lv := cur; lv > target; lv-- {
		key := grant[lv]
		if len(key) == 0 {
			return nil, false
		}
		aead, err := levelAEAD(key)
		if err != nil {
			return nil, false
		}
		n, off, end, _ := sealedSpan(r.region.Levels, lv)
		bitmap, err := aead.Open(scratch[:0], sealNonce[:], r.sealed[off:end], nil)
		if err != nil || len(members) != n || (n%8 != 0 && bitmap[n/8]>>(n%8) != 0) {
			return nil, false
		}
		members = keepUnmarked(members[:0], members, bitmap)
		if len(members) != n-r.region.Levels[lv-1].Steps {
			return nil, false
		}
	}
	return &cloak.CloakedRegion{
		Algorithm: base.Algorithm,
		Segments:  members,
		Levels:    append(make([]cloak.LevelMeta, 0, target), base.Levels[:target]...),
	}, true
}

// sameRegion reports whether two regions encode to the same bytes.
func sameRegion(a, b *cloak.CloakedRegion) bool {
	ra, errA := json.Marshal(a)
	rb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ra, rb)
}
