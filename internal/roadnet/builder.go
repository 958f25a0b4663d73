package roadnet

import (
	"errors"
	"fmt"
	"slices"

	"github.com/reversecloak/reversecloak/internal/geom"
)

// Errors returned by Builder operations.
var (
	// ErrSelfLoop reports a segment whose endpoints are the same junction.
	ErrSelfLoop = errors.New("roadnet: self-loop segment")
	// ErrDuplicateSegment reports a second segment between one junction pair.
	ErrDuplicateSegment = errors.New("roadnet: duplicate segment")
)

// Builder incrementally assembles a Graph. The zero value is ready to use.
// Builder is not safe for concurrent use.
type Builder struct {
	junctions []Junction
	segments  []Segment
	pairSeen  map[[2]JunctionID]bool
}

// NewBuilder returns an empty Builder with capacity hints for a network of
// roughly the given size.
func NewBuilder(junctionHint, segmentHint int) *Builder {
	return &Builder{
		junctions: make([]Junction, 0, junctionHint),
		segments:  make([]Segment, 0, segmentHint),
		pairSeen:  make(map[[2]JunctionID]bool, segmentHint),
	}
}

// AddJunction adds a junction at p and returns its ID.
func (b *Builder) AddJunction(p geom.Point) JunctionID {
	id := JunctionID(len(b.junctions))
	b.junctions = append(b.junctions, Junction{ID: id, At: p})
	return id
}

// NumJunctions returns the number of junctions added so far.
func (b *Builder) NumJunctions() int { return len(b.junctions) }

// NumSegments returns the number of segments added so far.
func (b *Builder) NumSegments() int { return len(b.segments) }

// AddSegment adds an undirected segment between junctions a and bb, with
// length equal to the straight-line distance between them. It rejects
// self-loops, duplicate junction pairs and unknown junction IDs.
func (b *Builder) AddSegment(a, bb JunctionID) (SegmentID, error) {
	return b.AddNamedSegment(a, bb, "")
}

// AddNamedSegment is AddSegment with a human-readable name (the paper's
// figures use names like "s18").
func (b *Builder) AddNamedSegment(a, bb JunctionID, name string) (SegmentID, error) {
	if a < 0 || int(a) >= len(b.junctions) {
		return InvalidSegment, fmt.Errorf("junction %d: %w", a, ErrNotFound)
	}
	if bb < 0 || int(bb) >= len(b.junctions) {
		return InvalidSegment, fmt.Errorf("junction %d: %w", bb, ErrNotFound)
	}
	if a == bb {
		return InvalidSegment, fmt.Errorf("junctions %d-%d: %w", a, bb, ErrSelfLoop)
	}
	key := [2]JunctionID{a, bb}
	if a > bb {
		key = [2]JunctionID{bb, a}
	}
	if b.pairSeen[key] {
		return InvalidSegment, fmt.Errorf("junctions %d-%d: %w", a, bb, ErrDuplicateSegment)
	}
	b.pairSeen[key] = true
	id := SegmentID(len(b.segments))
	b.segments = append(b.segments, Segment{
		ID:     id,
		A:      a,
		B:      bb,
		Length: b.junctions[a].At.Dist(b.junctions[bb].At),
		Name:   name,
	})
	return id, nil
}

// HasSegmentBetween reports whether a segment between a and bb was added.
func (b *Builder) HasSegmentBetween(a, bb JunctionID) bool {
	key := [2]JunctionID{a, bb}
	if a > bb {
		key = [2]JunctionID{bb, a}
	}
	return b.pairSeen[key]
}

// Build finalizes the graph: it computes incidence lists, segment adjacency,
// bounds and the spatial index. The Builder may be reused afterwards, but
// further mutations do not affect the returned Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		junctions: append([]Junction(nil), b.junctions...),
		segments:  append([]Segment(nil), b.segments...),
	}
	g.incident = make([][]SegmentID, len(g.junctions))
	for _, s := range g.segments {
		g.incident[s.A] = append(g.incident[s.A], s.ID)
		g.incident[s.B] = append(g.incident[s.B], s.ID)
	}

	g.neighbors = make([][]SegmentID, len(g.segments))
	for _, s := range g.segments {
		// AddSegment refuses a second segment between one junction pair, so
		// the two incidence lists share only s: no other ID can repeat.
		at, bt := g.incident[s.A], g.incident[s.B]
		nbs := make([]SegmentID, 0, len(at)+len(bt)-2)
		for _, other := range at {
			if other != s.ID {
				nbs = append(nbs, other)
			}
		}
		for _, other := range bt {
			if other != s.ID {
				nbs = append(nbs, other)
			}
		}
		slices.Sort(nbs)
		g.neighbors[s.ID] = nbs
	}

	for _, j := range g.junctions {
		g.bounds = g.bounds.Extend(j.At)
	}
	g.index = newSpatialIndex(g)
	return g
}
