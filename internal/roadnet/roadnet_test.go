package roadnet

import (
	"errors"
	"testing"

	"github.com/reversecloak/reversecloak/internal/geom"
)

// buildLadder returns a ladder-shaped test network:
//
//	j0 --s0-- j1 --s1-- j2
//	 |         |         |
//	s3        s4        s5
//	 |         |         |
//	j3 --s6-- j4 --s7-- j5
func buildLadder(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6, 8)
	pts := []geom.Point{
		{X: 0, Y: 100}, {X: 100, Y: 100}, {X: 200, Y: 100},
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0},
	}
	for _, p := range pts {
		b.AddJunction(p)
	}
	edges := [][2]JunctionID{{0, 1}, {1, 2}, {0, 3}, {1, 4}, {2, 5}, {3, 4}, {4, 5}}
	for _, e := range edges {
		if _, err := b.AddSegment(e[0], e[1]); err != nil {
			t.Fatalf("AddSegment(%v): %v", e, err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildLadder(t)
	if g.NumJunctions() != 6 {
		t.Errorf("junctions = %d, want 6", g.NumJunctions())
	}
	if g.NumSegments() != 7 {
		t.Errorf("segments = %d, want 7", g.NumSegments())
	}
	seg, err := g.Segment(0)
	if err != nil {
		t.Fatalf("Segment(0): %v", err)
	}
	if seg.Length != 100 {
		t.Errorf("segment 0 length = %v, want 100", seg.Length)
	}
	if !g.Connected() {
		t.Error("ladder should be connected")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2, 1)
	j := b.AddJunction(geom.Point{})
	if _, err := b.AddSegment(j, j); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop error = %v, want ErrSelfLoop", err)
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	b := NewBuilder(2, 2)
	a := b.AddJunction(geom.Point{X: 0})
	c := b.AddJunction(geom.Point{X: 1})
	if _, err := b.AddSegment(a, c); err != nil {
		t.Fatalf("first AddSegment: %v", err)
	}
	if _, err := b.AddSegment(c, a); !errors.Is(err, ErrDuplicateSegment) {
		t.Errorf("duplicate (reversed) error = %v, want ErrDuplicateSegment", err)
	}
	if !b.HasSegmentBetween(a, c) || !b.HasSegmentBetween(c, a) {
		t.Error("HasSegmentBetween should be order-insensitive")
	}
}

func TestBuilderRejectsUnknownJunction(t *testing.T) {
	b := NewBuilder(1, 1)
	j := b.AddJunction(geom.Point{})
	if _, err := b.AddSegment(j, 42); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown junction error = %v, want ErrNotFound", err)
	}
	if _, err := b.AddSegment(-1, j); !errors.Is(err, ErrNotFound) {
		t.Errorf("negative junction error = %v, want ErrNotFound", err)
	}
}

func TestAccessorsOutOfRange(t *testing.T) {
	g := buildLadder(t)
	if _, err := g.Segment(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Segment(99) error = %v", err)
	}
	if _, err := g.Junction(-1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Junction(-1) error = %v", err)
	}
	if g.SegmentLength(99) != 0 {
		t.Error("SegmentLength of invalid ID should be 0")
	}
	if g.Neighbors(99) != nil {
		t.Error("Neighbors of invalid ID should be nil")
	}
	if g.Midpoint(99) != (geom.Point{}) {
		t.Error("Midpoint of invalid ID should be zero point")
	}
}

func TestNeighbors(t *testing.T) {
	g := buildLadder(t)
	// Segment 0 is j0-j1. Incident at j0: s2 (j0-j3). At j1: s1 (j1-j2), s3 (j1-j4).
	nbs := g.Neighbors(0)
	want := map[SegmentID]bool{1: true, 2: true, 3: true}
	if len(nbs) != len(want) {
		t.Fatalf("Neighbors(0) = %v, want 3 segments", nbs)
	}
	for _, nb := range nbs {
		if !want[nb] {
			t.Errorf("unexpected neighbor %d", nb)
		}
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i-1] >= nbs[i] {
			t.Error("neighbors must be ID-sorted")
		}
	}
	if n := len(g.Neighbors(0)); n != 3 {
		t.Errorf("len(Neighbors(0)) = %d, want 3", n)
	}
}

func TestAdjacentAndSharedJunction(t *testing.T) {
	g := buildLadder(t)
	if !g.Adjacent(0, 1) {
		t.Error("s0 and s1 share j1")
	}
	if g.SharedJunction(0, 1) != 1 {
		t.Errorf("SharedJunction(0,1) = %d, want 1", g.SharedJunction(0, 1))
	}
	if g.Adjacent(0, 6) {
		t.Error("s0 (top-left) and s6 (bottom-right) do not touch")
	}
	if g.Adjacent(0, 0) {
		t.Error("a segment is not adjacent to itself")
	}
	if g.SharedJunction(0, 99) != InvalidJunction {
		t.Error("invalid segment should give InvalidJunction")
	}
}

func TestConnectedDetectsSplit(t *testing.T) {
	b := NewBuilder(4, 2)
	a := b.AddJunction(geom.Point{X: 0})
	c := b.AddJunction(geom.Point{X: 1})
	d := b.AddJunction(geom.Point{X: 10})
	e := b.AddJunction(geom.Point{X: 11})
	mustSeg(t, b, a, c)
	mustSeg(t, b, d, e)
	g := b.Build()
	if g.Connected() {
		t.Error("two disjoint edges should not be connected")
	}
}

func mustSeg(t *testing.T, b *Builder, a, c JunctionID) SegmentID {
	t.Helper()
	id, err := b.AddSegment(a, c)
	if err != nil {
		t.Fatalf("AddSegment: %v", err)
	}
	return id
}

func TestSegmentSetConnected(t *testing.T) {
	g := buildLadder(t)
	tests := []struct {
		name string
		set  map[SegmentID]bool
		want bool
	}{
		{"empty", map[SegmentID]bool{}, false},
		{"singleton", map[SegmentID]bool{3: true}, true},
		{"chain", map[SegmentID]bool{0: true, 1: true, 4: true}, true},
		{"disjoint", map[SegmentID]bool{2: true, 4: true}, false},
		{"all", map[SegmentID]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true}, true},
		{"false-entries-ignored", map[SegmentID]bool{0: true, 6: false}, true},
		{"invalid-member", map[SegmentID]bool{99: true}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.SegmentSetConnected(tt.set); got != tt.want {
				t.Errorf("SegmentSetConnected = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, 0).Build()
	if !g.Connected() {
		t.Error("empty graph is trivially connected")
	}
	if g.NumJunctions() != 0 || g.NumSegments() != 0 {
		t.Error("empty graph should have no elements")
	}
	if _, err := g.NearestSegment(geom.Point{}); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("NearestSegment on empty graph = %v, want ErrEmptyGraph", err)
	}
}

func TestBoundsAndMidpoint(t *testing.T) {
	g := buildLadder(t)
	b := g.Bounds()
	if b.Min != (geom.Point{X: 0, Y: 0}) || b.Max != (geom.Point{X: 200, Y: 100}) {
		t.Errorf("bounds = %v", b)
	}
	if mp := g.Midpoint(0); mp != (geom.Point{X: 50, Y: 100}) {
		t.Errorf("Midpoint(0) = %v", mp)
	}
}

func TestGraphImmutableAfterBuild(t *testing.T) {
	b := NewBuilder(3, 3)
	j0 := b.AddJunction(geom.Point{X: 0})
	j1 := b.AddJunction(geom.Point{X: 1})
	mustSeg(t, b, j0, j1)
	g := b.Build()
	// Mutating the builder afterwards must not change the built graph.
	j2 := b.AddJunction(geom.Point{X: 2})
	mustSeg(t, b, j1, j2)
	if g.NumJunctions() != 2 || g.NumSegments() != 1 {
		t.Error("graph changed after Build")
	}
	// Mutating copies returned by accessors must not corrupt the graph.
	segs := g.Segments()
	segs[0].Length = -1
	if g.SegmentLength(0) == -1 {
		t.Error("Segments() must return a copy")
	}
}
