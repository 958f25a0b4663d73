package cloak

import (
	"errors"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// constDensity gives every segment the same user count.
func constDensity(n int) DensityFunc {
	return func(roadnet.SegmentID) int { return n }
}

// testProfile is a 3-level profile sized for a 10x10 grid with density 2.
func testProfile() profile.Profile {
	return profile.Profile{Levels: []profile.Level{
		{K: 6, L: 3},
		{K: 14, L: 6},
		{K: 24, L: 10},
	}}
}

func testKeys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = seed(byte(10 + i))
	}
	return out
}

// newTestEngine builds an engine over a grid for the given algorithm.
func newTestEngine(t *testing.T, algo Algorithm, cols, rows int, density DensityFunc) *Engine {
	t.Helper()
	g := gridGraph(t, cols, rows)
	opts := Options{Algorithm: algo}
	if algo == RPLE {
		pre, err := NewPreassignment(g, DefaultTransitionListLength)
		if err != nil {
			t.Fatalf("NewPreassignment: %v", err)
		}
		opts.Pre = pre
	}
	e, err := NewEngine(g, density, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func sameIDSet(a, b []roadnet.SegmentID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[roadnet.SegmentID]bool, len(a))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		if !set[id] {
			return false
		}
	}
	return true
}

func TestAnonymizeSatisfiesRequirements(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			e := newTestEngine(t, algo, 10, 10, constDensity(2))
			req := Request{UserSegment: 42, Profile: testProfile(), Keys: testKeys(3)}
			cr, tr, err := e.Anonymize(req)
			if err != nil {
				t.Fatalf("Anonymize: %v", err)
			}
			if !cr.Contains(42) {
				t.Error("region must contain the user segment")
			}
			if cr.PrivacyLevel() != 3 {
				t.Errorf("privacy level = %d, want 3", cr.PrivacyLevel())
			}
			// Cumulative requirement check per level.
			members := []roadnet.SegmentID{42}
			for li, lv := range testProfile().Levels {
				members = append(members, tr.LevelSeqs[li]...)
				users := 2 * len(members)
				if users < lv.K {
					t.Errorf("level %d covers %d users, need %d", li+1, users, lv.K)
				}
				if len(members) < lv.L {
					t.Errorf("level %d covers %d segments, need %d", li+1, len(members), lv.L)
				}
			}
			if !sameIDSet(members, cr.Segments) {
				t.Error("trace segments do not match published region")
			}
			// Region must be connected.
			if !e.Graph().SegmentSetConnected(cr.SegmentSet()) {
				t.Error("cloaking region must be connected")
			}
		})
	}
}

func TestAnonymizeDeterministic(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			e := newTestEngine(t, algo, 10, 10, constDensity(2))
			req := Request{UserSegment: 17, Profile: testProfile(), Keys: testKeys(3)}
			cr1, _, err := e.Anonymize(req)
			if err != nil {
				t.Fatal(err)
			}
			cr2, _, err := e.Anonymize(req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDSet(cr1.Segments, cr2.Segments) {
				t.Error("anonymization must be deterministic for fixed keys")
			}
			for i := range cr1.Levels {
				a, b := cr1.Levels[i], cr2.Levels[i]
				if a.Steps != b.Steps || a.Salt != b.Salt || a.SigmaS != b.SigmaS ||
					len(a.Tags) != len(b.Tags) {
					t.Errorf("level %d metadata differs", i+1)
				}
			}
		})
	}
}

func TestAnonymizeKeySensitivity(t *testing.T) {
	e := newTestEngine(t, RGE, 10, 10, constDensity(2))
	req1 := Request{UserSegment: 17, Profile: testProfile(), Keys: testKeys(3)}
	cr1, _, err := e.Anonymize(req1)
	if err != nil {
		t.Fatal(err)
	}
	otherKeys := testKeys(3)
	otherKeys[0] = seed(99)
	req2 := Request{UserSegment: 17, Profile: testProfile(), Keys: otherKeys}
	cr2, _, err := e.Anonymize(req2)
	if err != nil {
		t.Fatal(err)
	}
	if sameIDSet(cr1.Segments, cr2.Segments) {
		t.Error("different keys should generally grow different regions")
	}
}

func TestRoundTripAllLevels(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			e := newTestEngine(t, algo, 10, 10, constDensity(2))
			req := Request{UserSegment: 55, Profile: testProfile(), Keys: testKeys(3)}
			cr, tr, err := e.Anonymize(req)
			if err != nil {
				t.Fatalf("Anonymize: %v", err)
			}

			// Expected region at each level from the audit trace.
			expect := map[int][]roadnet.SegmentID{0: {55}}
			acc := []roadnet.SegmentID{55}
			for li := range tr.LevelSeqs {
				acc = append(acc, tr.LevelSeqs[li]...)
				expect[li+1] = append([]roadnet.SegmentID(nil), acc...)
			}

			keyMap := map[int][]byte{1: testKeys(3)[0], 2: testKeys(3)[1], 3: testKeys(3)[2]}
			for toLevel := 2; toLevel >= 0; toLevel-- {
				got, err := e.Deanonymize(cr, keyMap, toLevel)
				if err != nil {
					t.Fatalf("Deanonymize to level %d: %v", toLevel, err)
				}
				if got.PrivacyLevel() != toLevel {
					t.Errorf("result level = %d, want %d", got.PrivacyLevel(), toLevel)
				}
				if !sameIDSet(got.Segments, expect[toLevel]) {
					t.Errorf("level %d region = %v, want %v", toLevel, got.Segments, expect[toLevel])
				}
			}

			// Full peel recovers exactly the user's segment.
			l0, err := e.Deanonymize(cr, keyMap, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(l0.Segments) != 1 || l0.Segments[0] != 55 {
				t.Errorf("L0 = %v, want [55]", l0.Segments)
			}
		})
	}
}

func TestRoundTripManyUsers(t *testing.T) {
	// Round trip from many different user segments; this exercises varied
	// region shapes, candidate-set sizes and collision paths.
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			e := newTestEngine(t, algo, 9, 9, constDensity(1))
			prof := profile.Profile{Levels: []profile.Level{
				{K: 4, L: 4},
				{K: 9, L: 9},
			}}
			keyMap := map[int][]byte{1: testKeys(2)[0], 2: testKeys(2)[1]}
			tried, succeeded := 0, 0
			for user := 0; user < e.Graph().NumSegments(); user += 7 {
				tried++
				req := Request{
					UserSegment: roadnet.SegmentID(user),
					Profile:     prof,
					Keys:        testKeys(2),
				}
				cr, _, err := e.Anonymize(req)
				if errors.Is(err, ErrCloakFailed) {
					continue // counted by success-rate experiments, not an error here
				}
				if err != nil {
					t.Fatalf("user %d: %v", user, err)
				}
				succeeded++
				l0, err := e.Deanonymize(cr, keyMap, 0)
				if err != nil {
					t.Fatalf("user %d: Deanonymize: %v", user, err)
				}
				if len(l0.Segments) != 1 || l0.Segments[0] != roadnet.SegmentID(user) {
					t.Fatalf("user %d: recovered %v", user, l0.Segments)
				}
			}
			if succeeded == 0 {
				t.Fatalf("no successful cloaks among %d users", tried)
			}
		})
	}
}

func TestDeanonymizeRequiresKeys(t *testing.T) {
	e := newTestEngine(t, RGE, 10, 10, constDensity(2))
	req := Request{UserSegment: 30, Profile: testProfile(), Keys: testKeys(3)}
	cr, _, err := e.Anonymize(req)
	if err != nil {
		t.Fatal(err)
	}
	// Missing the topmost key.
	if _, err := e.Deanonymize(cr, map[int][]byte{1: seed(10), 2: seed(11)}, 0); !errors.Is(err, ErrMissingKey) {
		t.Errorf("err = %v, want ErrMissingKey", err)
	}
	// Keys only needed for peeled levels: reducing to level 2 needs key 3 only.
	if _, err := e.Deanonymize(cr, map[int][]byte{3: testKeys(3)[2]}, 2); err != nil {
		t.Errorf("reducing to level 2 with key 3 only: %v", err)
	}
}

func TestDeanonymizeNoopAtCurrentLevel(t *testing.T) {
	e := newTestEngine(t, RGE, 10, 10, constDensity(2))
	req := Request{UserSegment: 30, Profile: testProfile(), Keys: testKeys(3)}
	cr, _, err := e.Anonymize(req)
	if err != nil {
		t.Fatal(err)
	}
	same, err := e.Deanonymize(cr, nil, 3)
	if err != nil {
		t.Fatalf("no-op dean: %v", err)
	}
	if !sameIDSet(same.Segments, cr.Segments) {
		t.Error("no-op dean changed the region")
	}
}

func TestDeanonymizeWrongKeyFails(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		t.Run(algo.String(), func(t *testing.T) {
			e := newTestEngine(t, algo, 10, 10, constDensity(2))
			wrong := 0
			trials := 0
			for user := 5; user < 100; user += 10 {
				req := Request{
					UserSegment: roadnet.SegmentID(user),
					Profile:     testProfile(),
					Keys:        testKeys(3),
				}
				cr, _, err := e.Anonymize(req)
				if errors.Is(err, ErrCloakFailed) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				trials++
				badKeys := map[int][]byte{1: seed(70), 2: seed(71), 3: seed(72)}
				got, err := e.Deanonymize(cr, badKeys, 0)
				if err != nil {
					wrong++ // irreversible: the expected outcome
					continue
				}
				if len(got.Segments) != 1 || got.Segments[0] != roadnet.SegmentID(user) {
					wrong++ // recovered a wrong segment: also fine for privacy
				}
			}
			if trials == 0 {
				t.Fatal("no trials")
			}
			if wrong < trials {
				t.Errorf("wrong key recovered the true location in %d/%d trials", trials-wrong, trials)
			}
		})
	}
}

func TestDeanonymizeTamperedRegion(t *testing.T) {
	e := newTestEngine(t, RGE, 10, 10, constDensity(2))
	req := Request{UserSegment: 30, Profile: testProfile(), Keys: testKeys(3)}
	cr, _, err := e.Anonymize(req)
	if err != nil {
		t.Fatal(err)
	}
	keyMap := map[int][]byte{1: testKeys(3)[0], 2: testKeys(3)[1], 3: testKeys(3)[2]}

	// Unknown segment ID.
	bad := cr.Clone()
	bad.Segments[0] = 9999
	if _, err := e.Deanonymize(bad, keyMap, 0); !errors.Is(err, ErrBadRegion) {
		t.Errorf("unknown segment err = %v", err)
	}

	// Broken step accounting.
	bad2 := cr.Clone()
	bad2.Levels[0].Steps += 3
	if _, err := e.Deanonymize(bad2, keyMap, 0); err == nil {
		t.Error("tampered step counts must not de-anonymize")
	}

	// Unsorted segments.
	bad3 := cr.Clone()
	if len(bad3.Segments) > 1 {
		bad3.Segments[0], bad3.Segments[1] = bad3.Segments[1], bad3.Segments[0]
		if _, err := e.Deanonymize(bad3, keyMap, 0); !errors.Is(err, ErrBadRegion) {
			t.Errorf("unsorted segments err = %v", err)
		}
	}
}

// TestDeanonymizeDisconnectedRegion: a region that passes the structural
// checks but is not connected cannot have come from Anonymize; it is
// refused at entry — before any hypothesis is tried, and even when the
// level to peel added nothing — as irreversible.
func TestDeanonymizeDisconnectedRegion(t *testing.T) {
	for _, algo := range []Algorithm{RGE, RPLE} {
		e := newTestEngine(t, algo, 10, 10, constDensity(2))
		far := roadnet.SegmentID(e.Graph().NumSegments() - 1)
		if e.Graph().Adjacent(0, far) {
			t.Fatal("test needs two non-adjacent segments")
		}
		before := e.Stats()
		for _, lv := range [][]LevelMeta{
			{{Steps: 1}},
			{{Steps: 1}, {Steps: 0}},
			{{Steps: 1, Tags: [][]byte{make([]byte, tagSize)}}},
		} {
			bad := &CloakedRegion{Algorithm: algo, Segments: []roadnet.SegmentID{0, far}, Levels: lv}
			_, err := e.Deanonymize(bad, map[int][]byte{1: seed(1), 2: seed(2)}, len(lv)-1)
			if !errors.Is(err, ErrIrreversible) || !strings.Contains(err.Error(), "not connected") {
				t.Errorf("%v, levels %+v: err = %v, want ErrIrreversible (not connected)", algo, lv, err)
			}
		}
		if got := e.Stats(); got != before {
			t.Errorf("%v: a disconnected region must be refused before any search: stats %+v", algo, got)
		}
	}
}

func TestZeroStepLevel(t *testing.T) {
	// Level 2 repeats level 1's requirements, so it should add nothing and
	// still round-trip.
	e := newTestEngine(t, RGE, 10, 10, constDensity(2))
	prof := profile.Profile{Levels: []profile.Level{
		{K: 6, L: 3},
		{K: 6, L: 3},
	}}
	req := Request{UserSegment: 42, Profile: prof, Keys: testKeys(2)}
	cr, tr, err := e.Anonymize(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.LevelSeqs[1]) != 0 {
		t.Errorf("level 2 added %d segments, want 0", len(tr.LevelSeqs[1]))
	}
	if cr.Levels[1].Steps != 0 {
		t.Errorf("level 2 steps = %d", cr.Levels[1].Steps)
	}
	keyMap := map[int][]byte{1: testKeys(2)[0], 2: testKeys(2)[1]}
	l0, err := e.Deanonymize(cr, keyMap, 0)
	if err != nil {
		t.Fatalf("Deanonymize: %v", err)
	}
	if len(l0.Segments) != 1 || l0.Segments[0] != 42 {
		t.Errorf("L0 = %v", l0.Segments)
	}
}

func TestSpatialToleranceRespected(t *testing.T) {
	e := newTestEngine(t, RGE, 12, 12, constDensity(1))
	prof := profile.Profile{Levels: []profile.Level{
		{K: 6, L: 6, SigmaS: 600},
	}}
	req := Request{UserSegment: 100, Profile: prof, Keys: testKeys(1)}
	cr, _, err := e.Anonymize(req)
	if errors.Is(err, ErrCloakFailed) {
		t.Skip("tolerance too tight for this seed; covered by success-rate bench")
	}
	if err != nil {
		t.Fatal(err)
	}
	var box = e.Graph().SegmentBounds(cr.Segments[0])
	for _, id := range cr.Segments[1:] {
		box = box.Union(e.Graph().SegmentBounds(id))
	}
	if box.Diagonal() > 600 {
		t.Errorf("region diagonal %.1f exceeds tolerance 600", box.Diagonal())
	}
}

func TestInfeasibleToleranceFails(t *testing.T) {
	e := newTestEngine(t, RGE, 10, 10, constDensity(1))
	// k=50 users cannot fit within a 150m diagonal on a 100m grid.
	prof := profile.Profile{Levels: []profile.Level{{K: 50, L: 2, SigmaS: 150}}}
	req := Request{UserSegment: 42, Profile: prof, Keys: testKeys(1)}
	if _, _, err := e.Anonymize(req); !errors.Is(err, ErrCloakFailed) {
		t.Errorf("err = %v, want ErrCloakFailed", err)
	}
}

func TestRequestValidation(t *testing.T) {
	e := newTestEngine(t, RGE, 5, 5, constDensity(1))
	valid := Request{UserSegment: 3, Profile: profile.Profile{Levels: []profile.Level{{K: 2, L: 2}}}, Keys: testKeys(1)}

	tests := []struct {
		name   string
		mutate func(Request) Request
	}{
		{"bad-segment", func(r Request) Request { r.UserSegment = 999; return r }},
		{"negative-segment", func(r Request) Request { r.UserSegment = -1; return r }},
		{"empty-profile", func(r Request) Request { r.Profile = profile.Profile{}; return r }},
		{"key-count-mismatch", func(r Request) Request { r.Keys = testKeys(2); return r }},
		{"empty-key", func(r Request) Request { r.Keys = [][]byte{{}}; return r }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := e.Anonymize(tt.mutate(valid)); !errors.Is(err, ErrBadRequest) {
				t.Errorf("err = %v, want ErrBadRequest", err)
			}
		})
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := gridGraph(t, 3, 3)
	if _, err := NewEngine(nil, constDensity(1), Options{Algorithm: RGE}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil graph err = %v", err)
	}
	if _, err := NewEngine(g, constDensity(1), Options{Algorithm: RPLE}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("RPLE without preassignment err = %v", err)
	}
	if _, err := NewEngine(g, constDensity(1), Options{Algorithm: Algorithm(9)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad algorithm err = %v", err)
	}
	other := gridGraph(t, 4, 4)
	pre, err := NewPreassignment(other, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(g, constDensity(1), Options{Algorithm: RPLE, Pre: pre}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("mismatched preassignment err = %v", err)
	}
	// Negative budgets would refuse every request; zero means "default".
	for _, o := range []Options{{Algorithm: RGE, MaxRetries: -1}, {Algorithm: RGE, MaxSteps: -1}} {
		if _, err := NewEngine(g, constDensity(1), o); !errors.Is(err, ErrBadRequest) {
			t.Errorf("options %+v err = %v", o, err)
		}
	}
	// Dean-only engine (nil density) builds fine but refuses to anonymize.
	e, err := NewEngine(g, nil, Options{Algorithm: RGE})
	if err != nil {
		t.Fatalf("dean-only engine: %v", err)
	}
	if _, _, err := e.Anonymize(Request{UserSegment: 0,
		Profile: profile.Profile{Levels: []profile.Level{{K: 1, L: 1}}},
		Keys:    testKeys(1)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("anonymize without density err = %v", err)
	}
}

func TestDeanonymizeValidation(t *testing.T) {
	e := newTestEngine(t, RGE, 5, 5, constDensity(2))
	req := Request{UserSegment: 3,
		Profile: profile.Profile{Levels: []profile.Level{{K: 4, L: 2}}},
		Keys:    testKeys(1)}
	cr, _, err := e.Anonymize(req)
	if err != nil {
		t.Fatal(err)
	}
	keyMap := map[int][]byte{1: testKeys(1)[0]}
	if _, err := e.Deanonymize(nil, keyMap, 0); !errors.Is(err, ErrBadRegion) {
		t.Errorf("nil region err = %v", err)
	}
	if _, err := e.Deanonymize(cr, keyMap, -1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative level err = %v", err)
	}
	if _, err := e.Deanonymize(cr, keyMap, 5); !errors.Is(err, ErrBadRequest) {
		t.Errorf("too-high level err = %v", err)
	}
	// Algorithm mismatch.
	crBad := cr.Clone()
	crBad.Algorithm = RPLE
	if _, err := e.Deanonymize(crBad, keyMap, 0); err == nil {
		t.Error("algorithm mismatch should fail")
	}
}

func TestCloakedRegionHelpers(t *testing.T) {
	cr := &CloakedRegion{
		Algorithm: RGE,
		Segments:  []roadnet.SegmentID{2, 5, 9},
		Levels:    []LevelMeta{{Steps: 2}},
	}
	if !cr.Contains(5) || cr.Contains(4) {
		t.Error("Contains is wrong")
	}
	set := cr.SegmentSet()
	if len(set) != 3 || !set[9] {
		t.Error("SegmentSet is wrong")
	}
	cl := cr.Clone()
	cl.Segments[0] = 77
	if cr.Segments[0] == 77 {
		t.Error("Clone must deep-copy")
	}
	if RGE.String() != "RGE" || RPLE.String() != "RPLE" {
		t.Error("Algorithm.String is wrong")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}
