// Package roadnet implements the road-network substrate that ReverseCloak
// cloaks over: an undirected graph of junctions (intersections) connected by
// road segments, with planar geometry, segment adjacency, shortest paths and
// spatial lookups.
//
// The paper's evaluation map is the USGS road network of the northwest part
// of Atlanta with 6,979 junctions and 9,187 segments; package mapgen
// synthesizes networks at that scale. A Graph is immutable once built and
// safe for concurrent readers.
package roadnet

import (
	"errors"
	"fmt"

	"github.com/reversecloak/reversecloak/internal/geom"
)

// JunctionID identifies a junction within one Graph. IDs are dense indices
// assigned in insertion order.
type JunctionID int32

// SegmentID identifies a road segment within one Graph. IDs are dense
// indices assigned in insertion order.
type SegmentID int32

// InvalidJunction and InvalidSegment are sentinel IDs that no graph element
// ever carries.
const (
	InvalidJunction JunctionID = -1
	InvalidSegment  SegmentID  = -1
)

// Errors returned by graph accessors and algorithms.
var (
	// ErrNotFound reports a junction or segment ID outside the graph.
	ErrNotFound = errors.New("roadnet: element not found")
	// ErrNoPath reports that two elements are not connected.
	ErrNoPath = errors.New("roadnet: no path")
	// ErrEmptyGraph reports an operation that needs a non-empty graph.
	ErrEmptyGraph = errors.New("roadnet: empty graph")
)

// Junction is an intersection of road segments.
type Junction struct {
	ID JunctionID `json:"id"`
	At geom.Point `json:"at"`
}

// Segment is an undirected road segment connecting two junctions.
type Segment struct {
	ID     SegmentID  `json:"id"`
	A      JunctionID `json:"a"`
	B      JunctionID `json:"b"`
	Length float64    `json:"length"` // meters
	Name   string     `json:"name,omitempty"`
}

// Graph is an immutable road network. Construct one with a Builder; the zero
// value is an empty graph.
type Graph struct {
	junctions []Junction
	segments  []Segment

	// incident[j] lists the segments touching junction j.
	incident [][]SegmentID
	// neighbors[s] lists the segments sharing a junction with segment s,
	// deduplicated, excluding s itself, sorted by SegmentID.
	neighbors [][]SegmentID

	bounds geom.BBox
	index  *spatialIndex
}

// NumJunctions returns the number of junctions.
func (g *Graph) NumJunctions() int { return len(g.junctions) }

// NumSegments returns the number of segments.
func (g *Graph) NumSegments() int { return len(g.segments) }

// Junction returns the junction with the given ID.
func (g *Graph) Junction(id JunctionID) (Junction, error) {
	if id < 0 || int(id) >= len(g.junctions) {
		return Junction{}, fmt.Errorf("junction %d: %w", id, ErrNotFound)
	}
	return g.junctions[id], nil
}

// Segment returns the segment with the given ID.
func (g *Graph) Segment(id SegmentID) (Segment, error) {
	if !g.HasSegment(id) {
		return Segment{}, fmt.Errorf("segment %d: %w", id, ErrNotFound)
	}
	return g.segments[id], nil
}

// HasSegment reports whether id names a segment of g.
func (g *Graph) HasSegment(id SegmentID) bool {
	return id >= 0 && int(id) < len(g.segments)
}

// HasJunction reports whether id names a junction of g.
func (g *Graph) HasJunction(id JunctionID) bool {
	return id >= 0 && int(id) < len(g.junctions)
}

// SegmentLength returns the length in meters of segment id, or 0 if the ID
// is invalid. Hot paths use it without error plumbing; validate IDs at the
// boundary instead.
func (g *Graph) SegmentLength(id SegmentID) float64 {
	if !g.HasSegment(id) {
		return 0
	}
	return g.segments[id].Length
}

// Neighbors returns the segments adjacent to segment id (sharing either
// endpoint), sorted by ID. The returned slice is shared; callers must not
// modify it.
func (g *Graph) Neighbors(id SegmentID) []SegmentID {
	if !g.HasSegment(id) {
		return nil
	}
	return g.neighbors[id]
}

// Endpoints returns the two junction positions of segment id.
func (g *Graph) Endpoints(id SegmentID) (geom.Point, geom.Point, error) {
	seg, err := g.Segment(id)
	if err != nil {
		return geom.Point{}, geom.Point{}, err
	}
	return g.junctions[seg.A].At, g.junctions[seg.B].At, nil
}

// Midpoint returns the midpoint of segment id, or the zero point for an
// invalid ID.
func (g *Graph) Midpoint(id SegmentID) geom.Point {
	if !g.HasSegment(id) {
		return geom.Point{}
	}
	seg := g.segments[id]
	return geom.Midpoint(g.junctions[seg.A].At, g.junctions[seg.B].At)
}

// SegmentBounds returns the bounding box of segment id.
func (g *Graph) SegmentBounds(id SegmentID) geom.BBox {
	if !g.HasSegment(id) {
		return geom.BBox{}
	}
	seg := g.segments[id]
	return geom.NewBBox(g.junctions[seg.A].At, g.junctions[seg.B].At)
}

// Bounds returns the bounding box of the whole network.
func (g *Graph) Bounds() geom.BBox { return g.bounds }

// SharedJunction returns the junction shared by segments a and b, or
// InvalidJunction if they do not touch.
func (g *Graph) SharedJunction(a, b SegmentID) JunctionID {
	if !g.HasSegment(a) || !g.HasSegment(b) {
		return InvalidJunction
	}
	sa, sb := g.segments[a], g.segments[b]
	switch {
	case sa.A == sb.A || sa.A == sb.B:
		return sa.A
	case sa.B == sb.A || sa.B == sb.B:
		return sa.B
	}
	return InvalidJunction
}

// Adjacent reports whether segments a and b share a junction.
func (g *Graph) Adjacent(a, b SegmentID) bool {
	return a != b && g.SharedJunction(a, b) != InvalidJunction
}

// Segments returns a copy of all segments.
func (g *Graph) Segments() []Segment {
	out := make([]Segment, len(g.segments))
	copy(out, g.segments)
	return out
}

// Connected reports whether every junction is reachable from every other.
// The empty graph is considered connected.
func (g *Graph) Connected() bool {
	if len(g.junctions) == 0 {
		return true
	}
	seen := make([]bool, len(g.junctions))
	stack := []JunctionID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, sid := range g.incident[j] {
			seg := g.segments[sid]
			next := seg.A
			if next == j {
				next = seg.B
			}
			if !seen[next] {
				seen[next] = true
				count++
				stack = append(stack, next)
			}
		}
	}
	return count == len(g.junctions)
}

// SegmentSetConnected reports whether the given set of segments forms a
// connected subgraph under segment adjacency. Cloaking regions must stay
// connected; the de-anonymizer uses this to prune removal hypotheses.
// The empty set is not connected; a singleton is.
func (g *Graph) SegmentSetConnected(set map[SegmentID]bool) bool {
	var start SegmentID = InvalidSegment
	n := 0
	for sid, in := range set {
		if !in {
			continue
		}
		if !g.HasSegment(sid) {
			return false
		}
		start = sid
		n++
	}
	if n == 0 {
		return false
	}
	seen := map[SegmentID]bool{start: true}
	stack := []SegmentID{start}
	count := 1
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.neighbors[s] {
			if set[nb] && !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == n
}
