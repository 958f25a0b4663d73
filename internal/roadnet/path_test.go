package roadnet

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/reversecloak/reversecloak/internal/geom"
)

func TestShortestPathLadder(t *testing.T) {
	g := buildLadder(t)
	path, dist, err := g.ShortestPath(0, 5)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if dist != 300 {
		t.Errorf("dist = %v, want 300", dist)
	}
	if len(path) != 3 {
		t.Errorf("path = %v, want 3 segments", path)
	}
	if got := g.PathLength(path); got != dist {
		t.Errorf("PathLength = %v, want %v", got, dist)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := buildLadder(t)
	path, dist, err := g.ShortestPath(2, 2)
	if err != nil || len(path) != 0 || dist != 0 {
		t.Errorf("self path = (%v, %v, %v), want empty", path, dist, err)
	}
}

func TestShortestPathErrors(t *testing.T) {
	g := buildLadder(t)
	if _, _, err := g.ShortestPath(0, 99); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown target error = %v", err)
	}
	if _, _, err := g.ShortestPath(-3, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown source error = %v", err)
	}

	// Disconnected graph -> ErrNoPath.
	b := NewBuilder(4, 2)
	a := b.AddJunction(geom.Point{X: 0})
	c := b.AddJunction(geom.Point{X: 1})
	d := b.AddJunction(geom.Point{X: 5})
	e := b.AddJunction(geom.Point{X: 6})
	mustSeg(t, b, a, c)
	mustSeg(t, b, d, e)
	g2 := b.Build()
	if _, _, err := g2.ShortestPath(a, d); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected error = %v, want ErrNoPath", err)
	}
}

func TestShortestPathPrefersShorterRoute(t *testing.T) {
	// Triangle with one long direct edge and a shorter two-hop detour.
	b := NewBuilder(3, 3)
	j0 := b.AddJunction(geom.Point{X: 0, Y: 0})
	j1 := b.AddJunction(geom.Point{X: 30, Y: 40}) // 50 from j0
	j2 := b.AddJunction(geom.Point{X: 30, Y: 0})  // 30 from j0, 40 from j1
	direct := mustSeg(t, b, j0, j1)
	mustSeg(t, b, j0, j2)
	mustSeg(t, b, j2, j1)
	g := b.Build()
	path, dist, err := g.ShortestPath(j0, j1)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if dist != 50 {
		t.Errorf("dist = %v, want 50 (direct)", dist)
	}
	if len(path) != 1 || path[0] != direct {
		t.Errorf("path = %v, want direct segment", path)
	}
}

func TestPathIsContiguousProperty(t *testing.T) {
	g := buildLadder(t)
	f := func(a, b uint8) bool {
		from := JunctionID(int(a) % g.NumJunctions())
		to := JunctionID(int(b) % g.NumJunctions())
		path, dist, err := g.ShortestPath(from, to)
		if err != nil {
			return false
		}
		if from == to {
			return len(path) == 0 && dist == 0
		}
		// Each consecutive pair of path segments must share a junction, and
		// the total length must match.
		var total float64
		for i, sid := range path {
			total += g.SegmentLength(sid)
			if i > 0 && !g.Adjacent(path[i-1], sid) {
				return false
			}
		}
		return math.Abs(total-dist) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopDistance(t *testing.T) {
	g := buildLadder(t)
	tests := []struct {
		from, to SegmentID
		want     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1}, // s0=j0-j1, s4=j2-j5? recompute: edges order {0,1},{1,2},{0,3},{1,4},{2,5},{3,4},{4,5}
	}
	// Recompute expectation for {0,4}: s0=j0-j1, s4=j2-j5. They share no
	// junction; s1=j1-j2 bridges them, so hop distance is 2.
	tests[2].want = 2
	for _, tt := range tests {
		got, err := g.HopDistance(tt.from, tt.to)
		if err != nil {
			t.Fatalf("HopDistance(%d,%d): %v", tt.from, tt.to, err)
		}
		if got != tt.want {
			t.Errorf("HopDistance(%d,%d) = %d, want %d", tt.from, tt.to, got, tt.want)
		}
	}
	if _, err := g.HopDistance(0, 99); !errors.Is(err, ErrNotFound) {
		t.Errorf("invalid segment error = %v", err)
	}
}

func TestSortCanonical(t *testing.T) {
	// Junctions placed so lengths differ: s0 len 10, s1 len 5, s2 len 10.
	b := NewBuilder(4, 3)
	j0 := b.AddJunction(geom.Point{X: 0, Y: 0})
	j1 := b.AddJunction(geom.Point{X: 10, Y: 0})
	j2 := b.AddJunction(geom.Point{X: 10, Y: 5})
	j3 := b.AddJunction(geom.Point{X: 20, Y: 5})
	mustSeg(t, b, j0, j1) // s0 len 10
	mustSeg(t, b, j1, j2) // s1 len 5
	mustSeg(t, b, j2, j3) // s2 len 10
	g := b.Build()

	ids := []SegmentID{2, 0, 1}
	g.SortCanonical(ids)
	want := []SegmentID{1, 0, 2} // shortest first; tie 0 vs 2 broken by ID
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("canonical order = %v, want %v", ids, want)
		}
	}
	if r := g.CanonicalRank([]SegmentID{2, 0, 1}, 2); r != 2 {
		t.Errorf("CanonicalRank(2) = %d, want 2", r)
	}
	if r := g.CanonicalRank([]SegmentID{2, 0, 1}, 7); r != -1 {
		t.Errorf("CanonicalRank(absent) = %d, want -1", r)
	}
}

func TestNearestSegment(t *testing.T) {
	g := buildLadder(t)
	// A point just above the middle of s0 (j0-j1 at y=100).
	sid, err := g.NearestSegment(geom.Point{X: 50, Y: 103})
	if err != nil {
		t.Fatalf("NearestSegment: %v", err)
	}
	if sid != 0 {
		t.Errorf("nearest = %d, want 0", sid)
	}
	// A point near the bottom-right corner -> s6 (j4-j5 at y=0) or s4 (j2-j5).
	sid, err = g.NearestSegment(geom.Point{X: 195, Y: 2})
	if err != nil {
		t.Fatalf("NearestSegment: %v", err)
	}
	if sid != 6 && sid != 4 {
		t.Errorf("nearest = %d, want s6 or s4", sid)
	}
}

func TestNearestSegmentMatchesBruteForce(t *testing.T) {
	g := buildLadder(t)
	pts := []geom.Point{
		{X: -10, Y: -10}, {X: 50, Y: 50}, {X: 210, Y: 110},
		{X: 100, Y: 100}, {X: 0, Y: 0}, {X: 150, Y: 20},
	}
	for _, p := range pts {
		got, err := g.NearestSegment(p)
		if err != nil {
			t.Fatalf("NearestSegment(%v): %v", p, err)
		}
		best := InvalidSegment
		bestD := math.Inf(1)
		for _, s := range g.Segments() {
			if d := g.distToSegment(p, s.ID); d < bestD {
				bestD = d
				best = s.ID
			}
		}
		if g.distToSegment(p, got) > bestD+1e-9 {
			t.Errorf("NearestSegment(%v) = %d (dist %v), brute force %d (dist %v)",
				p, got, g.distToSegment(p, got), best, bestD)
		}
	}
}

func TestSegmentsWithin(t *testing.T) {
	g := buildLadder(t)
	// Box covering only the left column (x in [-1, 10]).
	ids := g.SegmentsWithin(geom.NewBBox(geom.Point{X: -1, Y: -1}, geom.Point{X: 10, Y: 101}))
	want := map[SegmentID]bool{0: true, 2: true, 6: true} // s0 j0-j1 touches x=0..100 -> intersects; s2 j0-j3; s6? j3-j4 x=0..100
	// s0 bbox spans x 0..100 and intersects x<=10, same for s5 (j3-j4).
	_ = want
	if len(ids) == 0 {
		t.Fatal("expected some segments in range")
	}
	for _, id := range ids {
		if !g.SegmentBounds(id).Intersects(geom.NewBBox(geom.Point{X: -1, Y: -1}, geom.Point{X: 10, Y: 101})) {
			t.Errorf("segment %d out of range", id)
		}
	}
	if got := g.SegmentsWithin(geom.BBox{}); got != nil {
		t.Error("empty box should return nil")
	}
}
