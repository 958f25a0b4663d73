package cloak

import (
	"reflect"
	"slices"
	"testing"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// fuzzSeed is one published region with what reduces it.
type fuzzSeed struct {
	gr goldenRequest
	cr *CloakedRegion
}

// fuzzSeeds are, per algorithm, the first golden region off the paper
// scale with a tagged level and the first with levels that are all
// tagless.
func fuzzSeeds(tb testing.TB) []fuzzSeed {
	var out []fuzzSeed
	reqs := goldenRequests(goldenWorlds(tb, false))
	for _, algo := range []Algorithm{RGE, RPLE} {
		var tagged, tagless bool
		for _, gr := range reqs {
			if gr.algo != algo || (tagged && tagless) {
				continue
			}
			cr, _, err := gr.w.engines[algo].Anonymize(gr.req)
			if err != nil || len(cr.Segments) < 3 {
				continue
			}
			hasTags := slices.ContainsFunc(cr.Levels, func(lm LevelMeta) bool { return lm.Tags != nil })
			if (hasTags && !tagged) || (!hasTags && !tagless) {
				out = append(out, fuzzSeed{gr, cr})
				tagged, tagless = tagged || hasTags, tagless || !hasTags
			}
		}
		if !tagged || !tagless {
			tb.Fatalf("%v: no golden region with a tagged level (%v) or an all-tagless one (%v)", algo, tagged, tagless)
		}
	}
	return out
}

// FuzzDeanonymizeRegion hands Deanonymize published regions, tagged and
// tagless, with the true keys and mutated steps, salt, tag bytes, tag
// count and segment set. It must never panic; a reduction to level 0 that
// succeeds must yield one segment of the region; and a region the
// mutations left as published must reduce to the user's segment.
//
// level picks the level mutated; dSteps is added to its steps and dSalt
// XORed into its salt; tagXor is XORed into tag tagAt (its length becomes
// the tag's); dTags grows (zero tags) or shrinks the tag list; drop > 0
// removes segment drop-1 and add >= 0 inserts segment add, duplicates and
// unknown IDs included.
func FuzzDeanonymizeRegion(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i := range seeds {
		p := uint8(i)
		f.Add(p, uint8(0), int8(0), uint32(0), uint16(0), []byte(nil), int8(0), uint16(0), int32(-1))
		f.Add(p, uint8(2), int8(1), uint32(0), uint16(0), []byte(nil), int8(0), uint16(1), int32(-1))
		f.Add(p, uint8(1), int8(0), uint32(1), uint16(0), []byte(nil), int8(0), uint16(0), int32(-1))
		f.Add(p, uint8(2), int8(0), uint32(0), uint16(3), []byte{0, 0, 0, 0, 0, 0, 0, 1}, int8(0), uint16(0), int32(-1))
		f.Add(p, uint8(2), int8(-1), uint32(0), uint16(0), []byte(nil), int8(-1), uint16(0), int32(-1))
		f.Add(p, uint8(0), int8(0), uint32(0), uint16(0), []byte(nil), int8(2), uint16(0), int32(7))
	}
	f.Fuzz(func(t *testing.T, pick, level uint8, dSteps int8, dSalt uint32,
		tagAt uint16, tagXor []byte, dTags int8, drop uint16, add int32) {
		s := seeds[int(pick)%len(seeds)]
		cr := s.cr.Clone()
		lm := &cr.Levels[int(level)%len(cr.Levels)]
		lm.Steps += int(dSteps)
		lm.Salt ^= dSalt
		lm.Tags = slices.Clone(lm.Tags)
		if len(tagXor) > 0 && len(lm.Tags) > 0 {
			i := int(tagAt) % len(lm.Tags)
			tag := make([]byte, len(tagXor))
			for j := range tag {
				tag[j] = tagXor[j]
				if j < len(lm.Tags[i]) {
					tag[j] ^= lm.Tags[i][j]
				}
			}
			lm.Tags[i] = tag
		}
		if n := max(len(lm.Tags)+int(dTags), 0); dTags < 0 {
			lm.Tags = lm.Tags[:n]
		} else {
			for len(lm.Tags) < n {
				lm.Tags = append(lm.Tags, make([]byte, tagSize))
			}
		}
		if drop > 0 {
			cr.Segments = slices.Delete(cr.Segments, int(drop-1)%len(cr.Segments), int(drop-1)%len(cr.Segments)+1)
		}
		if add >= 0 {
			at, _ := slices.BinarySearch(cr.Segments, roadnet.SegmentID(add))
			cr.Segments = slices.Insert(cr.Segments, at, roadnet.SegmentID(add))
		}

		e := s.gr.w.engines[s.gr.algo]
		out, err := e.Deanonymize(cr, s.gr.keysByLevel(), 0)
		if err == nil && (out.PrivacyLevel() != 0 || len(out.Segments) != 1 || !cr.Contains(out.Segments[0])) {
			t.Fatalf("reduced to %d levels over %v, want one segment of the region", out.PrivacyLevel(), out.Segments)
		}
		if reflect.DeepEqual(cr, s.cr) && (err != nil || out.Segments[0] != s.gr.req.UserSegment) {
			t.Fatalf("%s as published: reduced to %v (err %v), want [%d]", s.gr.name, out, err, s.gr.req.UserSegment)
		}
	})
}
