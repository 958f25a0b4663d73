package cloak

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// bigKProfile forces a region much larger than its candidate set, the
// regime where the paper's backward lookup collides at every step and the
// engine must fall back to disambiguation tags.
func bigKProfile() profile.Profile {
	return profile.Profile{Levels: []profile.Level{{K: 120, L: 120}}}
}

func TestLargeRegionGetsTagsAndRoundTrips(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			e := newTestEngine(t, algo, 14, 14, constDensity(1))
			ks := testKeys(1)
			cr, tr, err := e.Anonymize(Request{UserSegment: 180, Profile: bigKProfile(), Keys: ks})
			if errors.Is(err, ErrCloakFailed) {
				t.Skip("large-k cloak infeasible on this grid for this algorithm")
			}
			if err != nil {
				t.Fatalf("Anonymize: %v", err)
			}
			if len(cr.Segments) < 120 {
				t.Fatalf("region has %d segments, want >= 120", len(cr.Segments))
			}
			// A region this large relative to its boundary needs tags.
			if cr.Levels[0].Tags == nil {
				t.Log("level reversed without tags (search stayed within budget)")
			} else if len(cr.Levels[0].Tags) != cr.Levels[0].Steps {
				t.Fatalf("tags = %d for %d steps", len(cr.Levels[0].Tags), cr.Levels[0].Steps)
			}

			l0, err := e.Deanonymize(cr, map[int][]byte{1: ks[0]}, 0)
			if err != nil {
				t.Fatalf("Deanonymize: %v", err)
			}
			if len(l0.Segments) != 1 || l0.Segments[0] != 180 {
				t.Fatalf("L0 = %v, want [180]", l0.Segments)
			}
			_ = tr
		})
	}
}

func TestTagsRejectWrongKey(t *testing.T) {
	e := newTestEngine(t, RGE, 14, 14, constDensity(1))
	ks := testKeys(1)
	cr, _, err := e.Anonymize(Request{UserSegment: 180, Profile: bigKProfile(), Keys: ks})
	if errors.Is(err, ErrCloakFailed) {
		t.Skip("large-k cloak infeasible")
	}
	if err != nil {
		t.Fatal(err)
	}
	if cr.Levels[0].Tags == nil {
		t.Skip("no tags emitted for this region")
	}
	got, err := e.Deanonymize(cr, map[int][]byte{1: seed(250)}, 0)
	if err == nil && len(got.Segments) == 1 && got.Segments[0] == 180 {
		t.Fatal("wrong key recovered the true segment through tags")
	}
	if !errors.Is(err, ErrIrreversible) && err != nil {
		t.Logf("wrong key failed with: %v", err)
	}
}

func TestTamperedTagsFail(t *testing.T) {
	e := newTestEngine(t, RGE, 14, 14, constDensity(1))
	ks := testKeys(1)
	cr, _, err := e.Anonymize(Request{UserSegment: 180, Profile: bigKProfile(), Keys: ks})
	if errors.Is(err, ErrCloakFailed) {
		t.Skip("large-k cloak infeasible")
	}
	if err != nil {
		t.Fatal(err)
	}
	if cr.Levels[0].Tags == nil {
		t.Skip("no tags emitted")
	}
	bad := cr.Clone()
	bad.Levels[0].Tags = append([][]byte(nil), bad.Levels[0].Tags...)
	bad.Levels[0].Tags[0] = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := e.Deanonymize(bad, map[int][]byte{1: ks[0]}, 0); !errors.Is(err, ErrIrreversible) {
		t.Errorf("tampered tag err = %v, want ErrIrreversible", err)
	}
	// Wrong tag count is rejected structurally.
	bad2 := cr.Clone()
	bad2.Levels[0].Tags = bad2.Levels[0].Tags[:1]
	if _, err := e.Deanonymize(bad2, map[int][]byte{1: ks[0]}, 0); !errors.Is(err, ErrBadRegion) {
		t.Errorf("truncated tags err = %v, want ErrBadRegion", err)
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
