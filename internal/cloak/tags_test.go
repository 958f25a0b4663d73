package cloak

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// taggedCase returns the first golden request off the paper scale whose
// region publishes a tagged level of at least three steps, the region and
// that level. It fails the test when there is none, so no tag test can
// pass by finding nothing to test.
func taggedCase(t *testing.T, algo Algorithm) (goldenRequest, *CloakedRegion, int) {
	t.Helper()
	for _, gr := range goldenRequests(goldenWorlds(t, false)) {
		if gr.algo != algo {
			continue
		}
		cr, _, err := gr.w.engines[algo].Anonymize(gr.req)
		if err != nil {
			continue
		}
		for i, lm := range cr.Levels {
			if lm.Tags != nil && lm.Steps >= 3 {
				return gr, cr, i + 1
			}
		}
	}
	t.Fatalf("no golden %v request publishes a tagged level of three steps or more", algo)
	return goldenRequest{}, nil, 0
}

// TestLargeRegionGetsTagsAndRoundTrips: a level whose tagless reversal the
// anonymizer could not verify (a region grown well past its frontier) is
// published with one tag per step and still reduces to the user's segment.
func TestLargeRegionGetsTagsAndRoundTrips(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			gr, cr, lv := taggedCase(t, algo)
			meta := cr.Levels[lv-1]
			if len(meta.Tags) != meta.Steps {
				t.Fatalf("%s level %d: %d tags for %d steps", gr.name, lv, len(meta.Tags), meta.Steps)
			}
			for i, tag := range meta.Tags {
				if len(tag) != tagSize {
					t.Fatalf("%s level %d step %d: tag of %d bytes", gr.name, lv, i+1, len(tag))
				}
			}
			l0, err := gr.w.engines[algo].Deanonymize(cr, gr.keysByLevel(), 0)
			if err != nil {
				t.Fatalf("%s: Deanonymize: %v", gr.name, err)
			}
			if len(l0.Segments) != 1 || l0.Segments[0] != gr.req.UserSegment {
				t.Fatalf("%s: L0 = %v, want [%d]", gr.name, l0.Segments, gr.req.UserSegment)
			}
		})
	}
}

func TestTagsRejectWrongKey(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			gr, cr, lv := taggedCase(t, algo)
			keys := gr.keysByLevel()
			keys[lv] = goldenKey(gr.name, "wrong")
			if _, err := gr.w.engines[algo].Deanonymize(cr, keys, lv-1); !errors.Is(err, ErrIrreversible) {
				t.Fatalf("%s: wrong key at tagged level %d: err = %v, want ErrIrreversible", gr.name, lv, err)
			}
		})
	}
}

// TestTamperedTagsFail flips one bit of the top step's tag, a middle
// step's and step 1's in turn: the reader must refuse each.
func TestTamperedTagsFail(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			gr, cr, lv := taggedCase(t, algo)
			e, keys := gr.w.engines[algo], gr.keysByLevel()
			steps := cr.Levels[lv-1].Steps
			for _, step := range []int{steps, (steps + 1) / 2, 1} {
				bad := cr.Clone()
				tags := slices.Clone(bad.Levels[lv-1].Tags)
				tags[step-1] = bytes.Clone(tags[step-1])
				tags[step-1][tagSize-1] ^= 1
				bad.Levels[lv-1].Tags = tags
				if _, err := e.Deanonymize(bad, keys, lv-1); !errors.Is(err, ErrIrreversible) {
					t.Errorf("%s level %d: tampered tag of step %d/%d: err = %v, want ErrIrreversible",
						gr.name, lv, step, steps, err)
				}
			}
			// A wrong tag count is rejected structurally.
			bad := cr.Clone()
			bad.Levels[lv-1].Tags = bad.Levels[lv-1].Tags[:1]
			if _, err := e.Deanonymize(bad, keys, lv-1); !errors.Is(err, ErrBadRegion) {
				t.Errorf("%s: truncated tags err = %v, want ErrBadRegion", gr.name, err)
			}
		})
	}
}

// topLevelArena loads region into an arena set up to peel its top level
// with key, as Deanonymize does; the caller releases it.
func topLevelArena(e *Engine, region *CloakedRegion, key []byte) (*arena, stepper, LevelMeta) {
	lv := region.PrivacyLevel()
	meta := region.Levels[lv-1]
	a := e.acquire(nil)
	for _, id := range region.Segments {
		a.st.add(id)
	}
	a.key.begin(key, lv)
	a.st.sigma = meta.SigmaS
	return a, a.stepper(region.Algorithm, e.opts.Pre, meta.Salt), meta
}

// tagWalk runs one tag walk — the reader's (strict false) or the
// anonymizer's full scan — over the top level of region, which must be
// tagged, and returns the removals it logged, last-added first.
func tagWalk(e *Engine, region *CloakedRegion, key []byte, strict bool) ([]roadnet.SegmentID, error) {
	a, stp, meta := topLevelArena(e, region, key)
	defer e.release(a)
	err := a.unwindTagged(stp, meta, strict)
	return slices.Clone(a.search.chain), err
}

// decoy looks, below the top step of the region's top level, for a step t
// and a member m of the region at that step that the full scan would take
// instead of the true segment were step t's tag m's: a smaller ID than the
// true segment, not among the heads the reader tries, and removable
// without disconnecting the region. chain is the level's true removals.
func decoy(e *Engine, region *CloakedRegion, key []byte, chain []roadnet.SegmentID) (int, roadnet.SegmentID, bool) {
	a, stp, meta := topLevelArena(e, region, key)
	defer e.release(a)
	st := a.st
	for i, s := range chain[:len(chain)-1] {
		t := meta.Steps - i - 1 // the step whose tag is planted
		st.remove(s)
		heads := stp.backward(st, s, uint64(t), nil)
		m := roadnet.InvalidSegment
		for _, c := range st.rows {
			if c < chain[i+1] && (m == roadnet.InvalidSegment || c < m) &&
				!slices.Contains(heads, c) && st.connectedWithout(c) {
				m = c
			}
		}
		if m != roadnet.InvalidSegment {
			return t, m, true
		}
	}
	return 0, roadnet.InvalidSegment, false
}

// TestTagWalkMatchesFullScan: on every tagged level of the golden requests
// and (at paper scale) of the 200 paper requesters, the reader's narrowed
// walk — every member at the top step, the backward transition's heads
// below it — returns the chain the anonymizer's full scan over all members
// does, which is the true one. A planted tag shows the difference: a step
// tag rewritten to a smaller-ID member outside the heads leads the full
// scan astray, while the reader refuses the level.
func TestTagWalkMatchesFullScan(t *testing.T) {
	type tcase struct {
		name string
		e    *Engine
		req  Request
	}
	var cases []tcase
	for _, gr := range goldenRequests(goldenWorlds(t, !testing.Short())) {
		cases = append(cases, tcase{gr.name, gr.w.engines[gr.algo], gr.req})
	}
	if !testing.Short() {
		for _, algo := range []Algorithm{RGE, RPLE} {
			e, users := paperEngine(t, algo)
			for i := range users {
				cases = append(cases, tcase{fmt.Sprintf("paper/%v/%d", algo, i), e, paperRequest(users, i)})
			}
		}
	}
	var levels, planted int
	var narrowPRFs, fullPRFs uint64
	for _, c := range cases {
		cr, tr, err := c.e.Anonymize(c.req)
		if err != nil {
			continue // refused
		}
		keys := map[int][]byte{}
		for i, k := range c.req.Keys {
			keys[i+1] = k
		}
		for lv := len(cr.Levels); lv >= 1; lv-- {
			if cr.Levels[lv-1].Tags == nil {
				continue
			}
			levels++
			at, err := c.e.Deanonymize(cr, keys, lv)
			if err != nil {
				t.Fatalf("%s: reduce to level %d: %v", c.name, lv, err)
			}
			key := keys[lv]
			before := c.e.Stats().TagPRFs
			narrow, nerr := tagWalk(c.e, at, key, false)
			mid := c.e.Stats().TagPRFs
			full, ferr := tagWalk(c.e, at, key, true)
			narrowPRFs, fullPRFs = narrowPRFs+mid-before, fullPRFs+c.e.Stats().TagPRFs-mid
			truth := slices.Clone(tr.LevelSeqs[lv-1])
			slices.Reverse(truth)
			if nerr != nil || ferr != nil || !slices.Equal(narrow, full) || !slices.Equal(full, truth) {
				t.Fatalf("%s level %d: narrowed walk %v (err %v), full scan %v (err %v), truth %v",
					c.name, lv, narrow, nerr, full, ferr, truth)
			}
			if planted >= 20 {
				continue
			}
			step, m, ok := decoy(c.e, at, key, truth)
			if !ok {
				continue
			}
			planted++
			meta := at.Levels[lv-1]
			var lk levelKey
			lk.begin(key, lv)
			lk.streamKey(meta.Salt)
			bad := at.Clone()
			tags := slices.Clone(meta.Tags)
			tags[step-1] = bytes.Clone(lk.tag(step, m))
			bad.Levels[lv-1].Tags = tags
			if _, err := c.e.Deanonymize(bad, map[int][]byte{lv: key}, lv-1); !errors.Is(err, ErrIrreversible) {
				t.Errorf("%s level %d: step %d tag planted on %d: reader err = %v, want ErrIrreversible",
					c.name, lv, step, m, err)
			}
			if got, _ := tagWalk(c.e, bad, key, true); len(got) <= meta.Steps-step || got[meta.Steps-step] != m {
				t.Errorf("%s level %d: step %d tag planted on %d: full scan removed %v, want the decoy at step %d",
					c.name, lv, step, m, got, step)
			}
		}
	}
	t.Logf("%d tagged levels agree (tag PRFs per level: %.1f narrowed, %.1f full scan); %d planted decoys refused",
		levels, float64(narrowPRFs)/float64(levels), float64(fullPRFs)/float64(levels), planted)
	if levels == 0 || planted == 0 {
		t.Fatalf("lost coverage: %d tagged levels, %d planted decoys", levels, planted)
	}
}

func TestSmallRegionsStayTagless(t *testing.T) {
	// The common case — small k, region smaller than its boundary — must
	// keep the paper's zero-overhead metadata.
	e := newTestEngine(t, RGE, 10, 10, constDensity(2))
	cr, _, err := e.Anonymize(Request{UserSegment: 42, Profile: testProfile(), Keys: testKeys(3)})
	if err != nil {
		t.Fatal(err)
	}
	for i, lm := range cr.Levels {
		if lm.Tags != nil {
			t.Errorf("level %d carries %d tags; small regions should be tagless",
				i+1, len(lm.Tags))
		}
	}
}
func TestStepTagDeterminism(t *testing.T) {
	newKey := func(b byte) *levelKey {
		lk := &levelKey{}
		lk.begin(seed(b), 2)
		lk.streamKey(3) // binds the tags to salt 3
		return lk
	}
	lk := newKey(1)
	a := bytes.Clone(lk.tag(4, roadnet.SegmentID(5)))
	b := bytes.Clone(newKey(1).tag(4, roadnet.SegmentID(5)))
	if string(a) != string(b) {
		t.Error("step tags must be deterministic")
	}
	if len(a) != tagSize {
		t.Errorf("tag size = %d", len(a))
	}
	// The reused MAC and the append-built labels must publish the bytes the
	// one-shot derivation over the documented label does.
	want := prng.Derive(seed(1), "reversecloak/tag/level=2/salt=3/step=4/seg=5")[:tagSize]
	if string(a) != string(want) {
		t.Errorf("tag = %x, want %x", a, want)
	}
	if got := string(appendStreamLabel(nil, 2, 3)); got != "reversecloak/level=2/salt=3" {
		t.Errorf("stream label = %q", got)
	}
	c := lk.tag(4, roadnet.SegmentID(6))
	if string(a) == string(c) {
		t.Error("different segments must tag differently")
	}
	if !lk.matches(4, roadnet.SegmentID(5), a) {
		t.Error("matches must accept its own tag")
	}
	if lk.matches(4, roadnet.SegmentID(5), a[:4]) {
		t.Error("short tag must not match")
	}
	if newKey(2).matches(4, roadnet.SegmentID(5), a) {
		t.Error("wrong key must not match")
	}
	tags := lk.makeTags([]roadnet.SegmentID{9, 5, 7})
	if len(tags) != 3 || !lk.matches(2, 5, tags[1]) || lk.matches(1, 5, tags[1]) {
		t.Error("makeTags must bind tag i to step i+1 of the sequence")
	}
}
