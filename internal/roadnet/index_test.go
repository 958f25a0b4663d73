package roadnet_test

import (
	"errors"
	"math"
	"testing"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// ringScan is the reference NearestSegment: the original map-keyed grid
// over segment midpoints, searched by visiting every cell of the square of
// ring r and skipping its interior. The production index must return the
// same segment for every point, tie-breaks included, because the
// simulation's occupancy (and so every published region) is built on it.
type ringScan struct {
	g          *roadnet.Graph
	cellSize   float64
	origin     geom.Point
	cols, rows int
	cells      map[int][]roadnet.SegmentID
}

func newRingScan(g *roadnet.Graph) *ringScan {
	r := &ringScan{g: g, cellSize: 1, cols: 1, rows: 1, cells: make(map[int][]roadnet.SegmentID)}
	n := g.NumSegments()
	b := g.Bounds()
	if n == 0 || b.Empty() {
		return r
	}
	r.origin = b.Min
	target := math.Sqrt(b.Width() * b.Height() / math.Max(1, float64(n)/2))
	if target <= 0 || math.IsNaN(target) {
		target = 1
	}
	r.cellSize = target
	r.cols = int(b.Width()/target) + 1
	r.rows = int(b.Height()/target) + 1
	for s := 0; s < n; s++ {
		c := r.cellOf(g.Midpoint(roadnet.SegmentID(s)))
		r.cells[c] = append(r.cells[c], roadnet.SegmentID(s))
	}
	return r
}

func (r *ringScan) cellOf(p geom.Point) int {
	cx := clampInt(int((p.X-r.origin.X)/r.cellSize), 0, r.cols-1)
	cy := clampInt(int((p.Y-r.origin.Y)/r.cellSize), 0, r.rows-1)
	return cy*r.cols + cx
}

func clampInt(v, lo, hi int) int {
	return max(lo, min(v, hi))
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (r *ringScan) dist(p geom.Point, sid roadnet.SegmentID) float64 {
	a, b, _ := r.g.Endpoints(sid)
	return geom.SegmentDist(p, a, b)
}

func (r *ringScan) nearest(p geom.Point) (roadnet.SegmentID, error) {
	if r.g.NumSegments() == 0 {
		return roadnet.InvalidSegment, roadnet.ErrEmptyGraph
	}
	cx := clampInt(int((p.X-r.origin.X)/r.cellSize), 0, r.cols-1)
	cy := clampInt(int((p.Y-r.origin.Y)/r.cellSize), 0, r.rows-1)
	best := roadnet.InvalidSegment
	bestDist := math.Inf(1)
	for ring := 0; ring <= max(r.cols, r.rows); ring++ {
		found := false
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if ring > 0 && absInt(dx) != ring && absInt(dy) != ring {
					continue
				}
				x, y := cx+dx, cy+dy
				if x < 0 || x >= r.cols || y < 0 || y >= r.rows {
					continue
				}
				for _, sid := range r.cells[y*r.cols+x] {
					found = true
					if d := r.dist(p, sid); d < bestDist {
						bestDist = d
						best = sid
					}
				}
			}
		}
		if found && ring > 0 {
			break
		}
	}
	return best, nil
}

const indexSeed = "reversecloak-default-map-seed-01"

func atlantaScaled(tb testing.TB, scale int) *roadnet.Graph {
	tb.Helper()
	g, err := mapgen.Generate(mapgen.Config{
		Junctions: scale * 6979, Segments: scale * 9187, Spacing: 150, Jitter: 0.3,
		Seed: []byte(indexSeed),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// probePoints draws n seeded points uniformly over g's bounds grown by 50 %
// on each side, so many fall far off the map's footprint, followed by every
// junction (where adjacent segments tie at distance 0).
func probePoints(g *roadnet.Graph, n int) []geom.Point {
	b := g.Bounds()
	w, h := b.Width(), b.Height()
	cur := prng.NewCursor(prng.New([]byte(indexSeed), "roadnet/probe"))
	pts := make([]geom.Point, 0, n+g.NumJunctions())
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{
			X: b.Min.X - w/2 + cur.Float64()*2*w,
			Y: b.Min.Y - h/2 + cur.Float64()*2*h,
		})
	}
	for j := 0; j < g.NumJunctions(); j++ {
		jn, _ := g.Junction(roadnet.JunctionID(j))
		pts = append(pts, jn.At)
	}
	return pts
}

func checkMatchesRingScan(t *testing.T, name string, g *roadnet.Graph, pts []geom.Point) {
	t.Helper()
	ref := newRingScan(g)
	bad := 0
	for _, p := range pts {
		got, gerr := g.NearestSegment(p)
		want, werr := ref.nearest(p)
		if got != want || !errors.Is(gerr, werr) {
			if bad++; bad <= 5 {
				t.Errorf("%s: NearestSegment(%v) = %d, %v; ring scan %d, %v", name, p, got, gerr, want, werr)
			}
		}
	}
	if bad > 5 {
		t.Errorf("%s: %d of %d points differ", name, bad, len(pts))
	}
}

// TestNearestSegmentMatchesRingScan is the differential test of the
// spatial index against the reference ring scan.
func TestNearestSegmentMatchesRingScan(t *testing.T) {
	atl := atlantaScaled(t, 1)
	checkMatchesRingScan(t, "atlanta", atl, probePoints(atl, 20000))

	empty := roadnet.NewBuilder(0, 0).Build()
	checkMatchesRingScan(t, "empty", empty, []geom.Point{{}, {X: 5, Y: -3}})

	b := roadnet.NewBuilder(2, 1)
	j0 := b.AddJunction(geom.Point{X: 10, Y: 10})
	j1 := b.AddJunction(geom.Point{X: 40, Y: 10})
	if _, err := b.AddSegment(j0, j1); err != nil {
		t.Fatal(err)
	}
	one := b.Build()
	checkMatchesRingScan(t, "one segment", one, probePoints(one, 200))
	for _, p := range probePoints(one, 200) {
		if sid, err := one.NearestSegment(p); sid != 0 || err != nil {
			t.Fatalf("one segment: NearestSegment(%v) = %d, %v", p, sid, err)
		}
	}

	if testing.Short() {
		return
	}
	atl4 := atlantaScaled(t, 4)
	checkMatchesRingScan(t, "atlanta-4x", atl4, probePoints(atl4, 20000))
}

// TestNearestSegmentDegenerateBounds: junctions on a 10 000 km line with a
// nanometre of height would ask for a grid 10^8 cells wide; the capped grid
// still answers.
func TestNearestSegmentDegenerateBounds(t *testing.T) {
	b := roadnet.NewBuilder(3, 2)
	j0 := b.AddJunction(geom.Point{X: 0, Y: 0})
	j1 := b.AddJunction(geom.Point{X: 5e6, Y: 1e-9})
	j2 := b.AddJunction(geom.Point{X: 1e7, Y: 0})
	for _, j := range [][2]roadnet.JunctionID{{j0, j1}, {j1, j2}} {
		if _, err := b.AddSegment(j[0], j[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for _, c := range []struct {
		p    geom.Point
		want roadnet.SegmentID
	}{
		{geom.Point{X: 1e6}, 0}, {geom.Point{X: -100, Y: 3}, 0},
		{geom.Point{X: 9e6, Y: 5}, 1}, {geom.Point{X: 2e7}, 1},
	} {
		if got, err := g.NearestSegment(c.p); got != c.want || err != nil {
			t.Errorf("NearestSegment(%v) = %d, %v; want %d", c.p, got, err, c.want)
		}
	}
}

func BenchmarkNearestSegment(b *testing.B) {
	g := atlantaScaled(b, 1)
	pts := probePoints(g, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.NearestSegment(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}
