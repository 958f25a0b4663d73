package mapgen

import (
	"errors"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

func TestGenerateExactCounts(t *testing.T) {
	g, err := Generate(Config{Junctions: 200, Segments: 263, Seed: seed(1)})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.NumJunctions() != 200 {
		t.Errorf("junctions = %d, want 200", g.NumJunctions())
	}
	if g.NumSegments() != 263 {
		t.Errorf("segments = %d, want 263", g.NumSegments())
	}
	if !g.Connected() {
		t.Error("generated network must be connected")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Junctions: 150, Segments: 200, Seed: seed(2)}
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g1.NumSegments() != g2.NumSegments() {
		t.Fatal("same seed must give same segment count")
	}
	for i := 0; i < g1.NumSegments(); i++ {
		s1, _ := g1.Segment(roadnet.SegmentID(i))
		s2, _ := g2.Segment(roadnet.SegmentID(i))
		if s1 != s2 {
			t.Fatalf("segment %d differs between identical seeds", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	g1, err := Generate(Config{Junctions: 150, Segments: 200, Seed: seed(3)})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g2, err := Generate(Config{Junctions: 150, Segments: 200, Seed: seed(4)})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	same := 0
	for i := 0; i < g1.NumSegments(); i++ {
		s1, _ := g1.Segment(roadnet.SegmentID(i))
		s2, _ := g2.Segment(roadnet.SegmentID(i))
		if s1 == s2 {
			same++
		}
	}
	if same == g1.NumSegments() {
		t.Error("different seeds produced identical networks")
	}
}

func TestGenerateVaryingLengths(t *testing.T) {
	g, err := Generate(Config{Junctions: 100, Segments: 120, Seed: seed(5)})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	lengths := make(map[float64]bool)
	for i := 0; i < g.NumSegments(); i++ {
		lengths[g.SegmentLength(roadnet.SegmentID(i))] = true
	}
	if len(lengths) < g.NumSegments()/2 {
		t.Errorf("only %d distinct lengths among %d segments; jitter not applied?",
			len(lengths), g.NumSegments())
	}
}

func TestGenerateErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"too-few-junctions", Config{Junctions: 1, Segments: 5, Seed: seed(1)}},
		{"too-few-segments", Config{Junctions: 100, Segments: 50, Seed: seed(1)}},
		{"no-seed", Config{Junctions: 10, Segments: 12}},
		{"too-many-segments", Config{Junctions: 10, Segments: 1000, Seed: seed(1)}},
		{"bad-jitter", Config{Junctions: 10, Segments: 12, Jitter: 0.9, Seed: seed(1)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg); !errors.Is(err, ErrInfeasible) {
				t.Errorf("err = %v, want ErrInfeasible", err)
			}
		})
	}
}

func TestSmallPresetDensity(t *testing.T) {
	g, err := Small(seed(6))
	if err != nil {
		t.Fatalf("Small: %v", err)
	}
	ratio := float64(g.NumSegments()) / float64(g.NumJunctions())
	if ratio < 1.25 || ratio > 1.4 {
		t.Errorf("segment density = %v, want around 1.32 (Atlanta-like)", ratio)
	}
	if !g.Connected() {
		t.Error("Small preset must be connected")
	}
}

// TestAtlantaScale verifies experiment E10's substrate: the synthetic
// Atlanta-NW network matches the paper's published element counts exactly.
func TestAtlantaScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping Atlanta-scale generation in -short mode")
	}
	g, err := AtlantaNW(seed(7))
	if err != nil {
		t.Fatalf("AtlantaNW: %v", err)
	}
	if g.NumJunctions() != 6979 {
		t.Errorf("junctions = %d, want 6979 (paper)", g.NumJunctions())
	}
	if g.NumSegments() != 9187 {
		t.Errorf("segments = %d, want 9187 (paper)", g.NumSegments())
	}
	if !g.Connected() {
		t.Error("Atlanta-scale network must be connected")
	}
}

func TestPreset(t *testing.T) {
	tests := []struct {
		name     string
		segments int
	}{
		{"small", 527},
		{"atlanta", 9187},
		{"grid", 480},
		{"figure1", 24},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.name == "atlanta" && testing.Short() {
				t.Skip("skipping Atlanta-scale generation in -short mode")
			}
			g, err := Preset(tt.name, seed(8))
			if err != nil {
				t.Fatalf("Preset(%q): %v", tt.name, err)
			}
			if g.NumSegments() != tt.segments {
				t.Errorf("segments = %d, want %d", g.NumSegments(), tt.segments)
			}
		})
	}
	_, err := Preset("paris", seed(8))
	if err == nil || !strings.Contains(err.Error(), `"paris"`) {
		t.Errorf("unknown preset err = %v, want one naming \"paris\"", err)
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(4, 3, 100)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if g.NumJunctions() != 12 {
		t.Errorf("junctions = %d, want 12", g.NumJunctions())
	}
	// Segments: horizontal 3*3=9, vertical 4*2=8 -> 17.
	if g.NumSegments() != 17 {
		t.Errorf("segments = %d, want 17", g.NumSegments())
	}
	if !g.Connected() {
		t.Error("grid must be connected")
	}
	for i := 0; i < g.NumSegments(); i++ {
		if l := g.SegmentLength(roadnet.SegmentID(i)); l != 100 {
			t.Fatalf("segment %d length = %v, want 100", i, l)
		}
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := Grid(1, 1, 100); !errors.Is(err, ErrInfeasible) {
		t.Errorf("1x1 grid err = %v", err)
	}
	if _, err := Grid(3, 3, -1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative spacing err = %v", err)
	}
}

func TestRing(t *testing.T) {
	g, err := Ring(3, 8, 200)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if g.NumJunctions() != 1+3*8 {
		t.Errorf("junctions = %d, want 25", g.NumJunctions())
	}
	if g.NumSegments() != 2*3*8 {
		t.Errorf("segments = %d, want 48", g.NumSegments())
	}
	if !g.Connected() {
		t.Error("ring network must be connected")
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := Ring(0, 8, 100); !errors.Is(err, ErrInfeasible) {
		t.Errorf("0 rings err = %v", err)
	}
	if _, err := Ring(2, 2, 100); !errors.Is(err, ErrInfeasible) {
		t.Errorf("2 spokes err = %v", err)
	}
	if _, err := Ring(2, 8, 0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("0 spacing err = %v", err)
	}
}
