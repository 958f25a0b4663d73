package query

import (
	"errors"
	"testing"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func seed(b byte) []byte {
	s := make([]byte, 32)
	for i := range s {
		s[i] = b
	}
	return s
}

func testIndex(t *testing.T) (*Index, *roadnet.Graph) {
	t.Helper()
	g, err := mapgen.Grid(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	pois, err := GeneratePOIs(g, 200, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	return NewIndex(g, pois), g
}

func TestGeneratePOIs(t *testing.T) {
	ix, g := testIndex(t)
	if len(ix.pois) != 200 {
		t.Fatalf("pois = %d, want 200", len(ix.pois))
	}
	// All POIs lie within the map bounds.
	bb := g.Bounds()
	for _, p := range ix.pois {
		if p.At.X < bb.Min.X || p.At.X > bb.Max.X || p.At.Y < bb.Min.Y || p.At.Y > bb.Max.Y {
			t.Errorf("poi %d at %v outside map", p.ID, p.At)
		}
	}
	// Deterministic per seed.
	again, err := GeneratePOIs(g, 200, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].At != ix.pois[i].At {
			t.Fatal("POI generation must be deterministic")
		}
	}
	if _, err := GeneratePOIs(g, -1, seed(1)); !errors.Is(err, ErrBadQuery) {
		t.Errorf("negative count err = %v", err)
	}
}

func TestRangeExact(t *testing.T) {
	ix, _ := testIndex(t)
	at := geom.Point{X: 450, Y: 450}
	got, err := ix.RangeExact(at, 150)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p.At.Dist(at) > 150 {
			t.Errorf("poi %d at distance %v > 150", p.ID, p.At.Dist(at))
		}
	}
	// Complement check: everything excluded is genuinely out of range.
	in := make(map[int]bool)
	for _, p := range got {
		in[p.ID] = true
	}
	for _, p := range ix.pois {
		if !in[p.ID] && p.At.Dist(at) <= 150 {
			t.Errorf("poi %d within range but missing", p.ID)
		}
	}
	if _, err := ix.RangeExact(at, -1); !errors.Is(err, ErrBadQuery) {
		t.Errorf("negative radius err = %v", err)
	}
}

func TestRangeCloakedIsSuperset(t *testing.T) {
	ix, g := testIndex(t)
	// A small region around the center of the grid.
	center, err := g.NearestSegment(geom.Point{X: 450, Y: 450})
	if err != nil {
		t.Fatal(err)
	}
	region := append([]roadnet.SegmentID{center}, g.Neighbors(center)...)

	cloaked, err := ix.RangeCloaked(region, 150)
	if err != nil {
		t.Fatal(err)
	}
	// The exact answer from any point on the region must be contained in
	// the cloaked answer; test with both segment endpoints.
	a, b, err := g.Endpoints(center)
	if err != nil {
		t.Fatal(err)
	}
	inCloaked := make(map[int]bool)
	for _, p := range cloaked {
		inCloaked[p.ID] = true
	}
	for _, pt := range []geom.Point{a, b, geom.Midpoint(a, b)} {
		exact, err := ix.RangeExact(pt, 150)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range exact {
			if !inCloaked[p.ID] {
				t.Errorf("exact result poi %d missing from cloaked candidates", p.ID)
			}
		}
	}
}

func TestRangeCloakedErrors(t *testing.T) {
	ix, _ := testIndex(t)
	if _, err := ix.RangeCloaked(nil, 100); !errors.Is(err, ErrBadQuery) {
		t.Errorf("empty region err = %v", err)
	}
	if _, err := ix.RangeCloaked([]roadnet.SegmentID{0}, -5); !errors.Is(err, ErrBadQuery) {
		t.Errorf("negative radius err = %v", err)
	}
	if _, err := ix.RangeCloaked([]roadnet.SegmentID{9999}, 10); err == nil {
		t.Error("unknown segment should fail")
	}
}

func TestOverhead(t *testing.T) {
	if Overhead(10, 30) != 3 {
		t.Error("overhead 30/10 should be 3")
	}
	if Overhead(0, 7) != 7 {
		t.Error("zero exact should return candidate count")
	}
	if Overhead(5, 5) != 1 {
		t.Error("equal should be 1")
	}
}

func TestOverheadGrowsWithRegion(t *testing.T) {
	ix, g := testIndex(t)
	center, err := g.NearestSegment(geom.Point{X: 450, Y: 450})
	if err != nil {
		t.Fatal(err)
	}
	small := []roadnet.SegmentID{center}
	large := append([]roadnet.SegmentID{center}, g.Neighbors(center)...)
	for _, nb := range g.Neighbors(center) {
		large = append(large, g.Neighbors(nb)...)
	}
	cSmall, err := ix.RangeCloaked(small, 120)
	if err != nil {
		t.Fatal(err)
	}
	cLarge, err := ix.RangeCloaked(large, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(cLarge) < len(cSmall) {
		t.Errorf("larger region returned fewer candidates (%d < %d)", len(cLarge), len(cSmall))
	}
}
