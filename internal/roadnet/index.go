package roadnet

import (
	"math"

	"github.com/reversecloak/reversecloak/internal/geom"
)

// spatialIndex is a uniform grid over segment midpoints supporting nearest-
// segment queries. It is built once per graph and read-only after.
//
// The cells are stored densely, CSR-style: cell c holds segs[start[c]:
// start[c+1]], in segment ID order. ring0[c] is the Chebyshev distance, in
// cells, from c to the nearest non-empty cell, so a search from c can skip
// straight to that ring.
type spatialIndex struct {
	cellSize float64
	origin   geom.Point
	cols     int
	rows     int
	start    []int32
	segs     []SegmentID
	ring0    []int32
}

// maxIndexCells caps the grid for degenerate bounds (a near-zero height
// makes the target cell tiny). Maps with a sane aspect ratio stay far below
// it, so their cells are untouched.
const maxIndexCells = 1 << 22

// newSpatialIndex builds the index. Cell size is chosen so that cells hold a
// handful of segments on average.
func newSpatialIndex(g *Graph) *spatialIndex {
	idx := &spatialIndex{cellSize: 1, cols: 1, rows: 1}
	n := len(g.segments)
	if n > 0 && !g.bounds.Empty() {
		b := g.bounds
		idx.origin = b.Min
		// Aim for ~2 segments per cell: cells ~ n/2.
		target := math.Sqrt(b.Width() * b.Height() / math.Max(1, float64(n)/2))
		if target <= 0 || math.IsNaN(target) {
			target = 1
		}
		for (math.Floor(b.Width()/target)+1)*(math.Floor(b.Height()/target)+1) > maxIndexCells {
			target *= 2
		}
		idx.cellSize = target
		idx.cols = int(b.Width()/target) + 1
		idx.rows = int(b.Height()/target) + 1
	}
	cells := idx.cols * idx.rows
	idx.start = make([]int32, cells+1)
	for _, s := range g.segments {
		idx.start[idx.cellOf(g.Midpoint(s.ID))+1]++
	}
	for c := 0; c < cells; c++ {
		idx.start[c+1] += idx.start[c]
	}
	fill := append([]int32(nil), idx.start[:cells]...)
	idx.segs = make([]SegmentID, n)
	for _, s := range g.segments {
		c := idx.cellOf(g.Midpoint(s.ID))
		idx.segs[fill[c]] = s.ID
		fill[c]++
	}
	idx.ring0 = idx.ringDistances()
	return idx
}

// ringDistances runs a multi-source, 8-neighbour BFS from every non-empty
// cell; a cell's BFS depth is its Chebyshev distance to the nearest one.
// With no segments every entry stays -1 (NearestSegment never reads it).
func (idx *spatialIndex) ringDistances() []int32 {
	cells := idx.cols * idx.rows
	dist := make([]int32, cells)
	queue := make([]int32, 0, cells)
	for c := 0; c < cells; c++ {
		if idx.start[c+1] > idx.start[c] {
			queue = append(queue, int32(c))
		} else {
			dist[c] = -1
		}
	}
	for head := 0; head < len(queue); head++ {
		c := int(queue[head])
		cx, cy := c%idx.cols, c/idx.cols
		for y := max(cy-1, 0); y <= min(cy+1, idx.rows-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, idx.cols-1); x++ {
				if nb := y*idx.cols + x; dist[nb] < 0 {
					dist[nb] = dist[c] + 1
					queue = append(queue, int32(nb))
				}
			}
		}
	}
	return dist
}

// cellOf maps a point to its cell key.
func (idx *spatialIndex) cellOf(p geom.Point) int {
	cx := int((p.X - idx.origin.X) / idx.cellSize)
	cy := int((p.Y - idx.origin.Y) / idx.cellSize)
	cx = clamp(cx, 0, idx.cols-1)
	cy = clamp(cy, 0, idx.rows-1)
	return cy*idx.cols + cx
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// NearestSegment returns a segment near p, by true point-to-segment
// distance, from the midpoint grid. It is not always the nearest one. It
// visits square rings of cells around p's cell (p clamped into the grid),
// each ring's cells in row-major order, and stops after the first
// non-empty ring beyond ring 0; among the segments of the visited rings it
// returns the closest, the first visited on a tie. A segment whose
// midpoint lies further out can still be closer to p, and then is missed.
// The occupancy every published region is computed against is built on
// this result, so its tie-breaks and its misses are part of the protocol.
func (g *Graph) NearestSegment(p geom.Point) (SegmentID, error) {
	if len(g.segments) == 0 {
		return InvalidSegment, ErrEmptyGraph
	}
	idx := g.index
	cx := clamp(int((p.X-idx.origin.X)/idx.cellSize), 0, idx.cols-1)
	cy := clamp(int((p.Y-idx.origin.Y)/idx.cellSize), 0, idx.rows-1)

	best := InvalidSegment
	bestDist := math.Inf(1)
	visit := func(x, y int) bool {
		c := y*idx.cols + x
		for _, sid := range idx.segs[idx.start[c]:idx.start[c+1]] {
			if d := g.distToSegment(p, sid); d < bestDist {
				bestDist = d
				best = sid
			}
		}
		return idx.start[c+1] > idx.start[c]
	}
	// Rings below ring0 are empty, so starting there visits the same
	// segments in the same order as starting at ring 0.
	for ring := int(idx.ring0[cy*idx.cols+cx]); ; ring++ {
		found := false
		x0, x1 := max(cx-ring, 0), min(cx+ring, idx.cols-1)
		for y := max(cy-ring, 0); y <= min(cy+ring, idx.rows-1); y++ {
			if y == cy-ring || y == cy+ring {
				for x := x0; x <= x1; x++ {
					found = visit(x, y) || found
				}
				continue
			}
			// Only the ring's left and right cells in the rows between.
			if cx-ring >= 0 {
				found = visit(cx-ring, y) || found
			}
			if cx+ring < idx.cols {
				found = visit(cx+ring, y) || found
			}
		}
		// The first non-empty ring beyond ring 0 ends the search; a closer
		// segment whose midpoint lies further out is not looked for.
		if found && ring > 0 {
			return best, nil
		}
		if ring >= idx.cols && ring >= idx.rows {
			// Every cell has been visited: only ring 0 held segments.
			return best, nil
		}
	}
}

// distToSegment returns the true distance from p to the segment's geometry.
func (g *Graph) distToSegment(p geom.Point, id SegmentID) float64 {
	seg := g.segments[id]
	return geom.SegmentDist(p, g.junctions[seg.A].At, g.junctions[seg.B].At)
}

// SegmentsWithin returns the segments whose bounding boxes intersect the
// query box, sorted by ID.
func (g *Graph) SegmentsWithin(box geom.BBox) []SegmentID {
	if box.Empty() || len(g.segments) == 0 {
		return nil
	}
	var out []SegmentID
	for _, s := range g.segments {
		if g.SegmentBounds(s.ID).Intersects(box) {
			out = append(out, s.ID)
		}
	}
	return out
}
