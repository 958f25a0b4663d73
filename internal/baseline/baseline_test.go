package baseline

import (
	"errors"
	"testing"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

func grid(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func one(roadnet.SegmentID) int { return 1 }

func TestRandomExpansionMeetsRequirement(t *testing.T) {
	g := grid(t)
	region, err := RandomExpansion(g, one, 42, profile.Level{K: 8, L: 8}, seed(1))
	if err != nil {
		t.Fatalf("RandomExpansion: %v", err)
	}
	if len(region) < 8 {
		t.Errorf("region has %d segments, want >= 8", len(region))
	}
	if region[0] != 42 {
		t.Errorf("region must start at the user segment")
	}
	set := make(map[roadnet.SegmentID]bool)
	for _, s := range region {
		if set[s] {
			t.Fatalf("segment %d repeated", s)
		}
		set[s] = true
	}
	if !g.SegmentSetConnected(set) {
		t.Error("region must be connected")
	}
}

func TestRandomExpansionDeterministicPerSeed(t *testing.T) {
	g := grid(t)
	r1, err := RandomExpansion(g, one, 10, profile.Level{K: 6, L: 6}, seed(2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandomExpansion(g, one, 10, profile.Level{K: 6, L: 6}, seed(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same seed must reproduce the expansion")
		}
	}
	r3, err := RandomExpansion(g, one, 10, profile.Level{K: 6, L: 6}, seed(3))
	if err != nil {
		t.Fatal(err)
	}
	same := len(r1) == len(r3)
	if same {
		for i := range r1 {
			if r1[i] != r3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should generally differ")
	}
}

func TestRandomExpansionErrors(t *testing.T) {
	g := grid(t)
	if _, err := RandomExpansion(g, one, 9999, profile.Level{K: 2, L: 2}, seed(1)); !errors.Is(err, ErrFailed) {
		t.Errorf("unknown segment err = %v", err)
	}
	// Impossible tolerance.
	if _, err := RandomExpansion(g, one, 42, profile.Level{K: 50, L: 2, SigmaS: 120}, seed(1)); !errors.Is(err, ErrFailed) {
		t.Errorf("tight tolerance err = %v", err)
	}
}

func TestNaiveRoundTrip(t *testing.T) {
	g := grid(t)
	prof := profile.Profile{Levels: []profile.Level{
		{K: 4, L: 4},
		{K: 9, L: 9},
		{K: 16, L: 16},
	}}
	ks := [][]byte{seed(10), seed(11), seed(12)}
	p, err := NaiveAnonymize(g, one, 33, prof, ks)
	if err != nil {
		t.Fatalf("NaiveAnonymize: %v", err)
	}
	if len(p.Blobs) != 3 {
		t.Fatalf("blobs = %d, want 3", len(p.Blobs))
	}
	if p.Bytes() <= 0 {
		t.Error("payload must serialize")
	}
	keyMap := map[int][]byte{1: ks[0], 2: ks[1], 3: ks[2]}
	l0, err := NaiveDeanonymize(p, keyMap, 0)
	if err != nil {
		t.Fatalf("NaiveDeanonymize: %v", err)
	}
	if len(l0) != 1 || l0[0] != 33 {
		t.Errorf("L0 = %v, want [33]", l0)
	}
	// Partial peel.
	l2, err := NaiveDeanonymize(p, map[int][]byte{3: ks[2]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2) >= len(p.Segments) || len(l2) < 9 {
		t.Errorf("L2 size = %d of %d", len(l2), len(p.Segments))
	}
}

func TestNaiveWrongKeyFails(t *testing.T) {
	g := grid(t)
	prof := profile.Profile{Levels: []profile.Level{{K: 5, L: 5}}}
	p, err := NaiveAnonymize(g, one, 12, prof, [][]byte{seed(20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NaiveDeanonymize(p, map[int][]byte{1: seed(21)}, 0); !errors.Is(err, ErrBadPayload) {
		t.Errorf("wrong key err = %v", err)
	}
	if _, err := NaiveDeanonymize(p, map[int][]byte{}, 0); !errors.Is(err, ErrBadPayload) {
		t.Errorf("missing key err = %v", err)
	}
	if _, err := NaiveDeanonymize(p, nil, 9); !errors.Is(err, ErrBadPayload) {
		t.Errorf("bad level err = %v", err)
	}
}

func TestNaiveValidation(t *testing.T) {
	g := grid(t)
	if _, err := NaiveAnonymize(g, one, 12, profile.Profile{}, nil); !errors.Is(err, ErrFailed) {
		t.Errorf("empty profile err = %v", err)
	}
	prof := profile.Profile{Levels: []profile.Level{{K: 2, L: 2}}}
	if _, err := NaiveAnonymize(g, one, 12, prof, [][]byte{seed(1), seed(2)}); !errors.Is(err, ErrFailed) {
		t.Errorf("key count err = %v", err)
	}
}
