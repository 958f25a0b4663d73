// Package query implements anonymous query processing over cloaked
// regions, the consumer side of location cloaking (Casper-style query
// processing [7] and road-network services [9] in the paper's references).
//
// An LBS provider that receives a cloaking region instead of an exact
// location must answer for every possible user position inside the region,
// returning a candidate superset that the client filters locally. The ratio
// between the candidate result and the exact result is the query-processing
// overhead that privacy buys — experiment E12 measures how it scales with
// the privacy level.
package query

import (
	"errors"
	"fmt"
	"sort"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Errors returned by the query processor.
var (
	// ErrBadQuery reports invalid query parameters.
	ErrBadQuery = errors.New("query: bad query")
)

// POI is a point of interest served by the LBS.
type POI struct {
	ID   int        `json:"id"`
	At   geom.Point `json:"at"`
	Name string     `json:"name,omitempty"`
}

// Index answers range queries over a POI set on a road network. It is
// immutable after construction and safe for concurrent readers.
type Index struct {
	g    *roadnet.Graph
	pois []POI
}

// NewIndex builds an index over the given POIs.
func NewIndex(g *roadnet.Graph, pois []POI) *Index {
	cp := make([]POI, len(pois))
	copy(cp, pois)
	return &Index{g: g, pois: cp}
}

// RangeExact returns the POIs within distance d of the exact point,
// sorted by ID. This is the non-private baseline answer.
func (ix *Index) RangeExact(at geom.Point, d float64) ([]POI, error) {
	if d < 0 {
		return nil, fmt.Errorf("%w: negative radius", ErrBadQuery)
	}
	var out []POI
	for _, p := range ix.pois {
		if p.At.Dist(at) <= d {
			out = append(out, p)
		}
	}
	return out, nil
}

// RangeCloaked returns the POIs within distance d of *any* point of the
// cloaked region (given as its segment set): the candidate superset the LBS
// must return when it only knows the region. Results are sorted by ID.
func (ix *Index) RangeCloaked(region []roadnet.SegmentID, d float64) ([]POI, error) {
	if d < 0 {
		return nil, fmt.Errorf("%w: negative radius", ErrBadQuery)
	}
	if len(region) == 0 {
		return nil, fmt.Errorf("%w: empty region", ErrBadQuery)
	}
	type geomSeg struct{ a, b geom.Point }
	segs := make([]geomSeg, 0, len(region))
	for _, sid := range region {
		a, b, err := ix.g.Endpoints(sid)
		if err != nil {
			return nil, fmt.Errorf("query: region segment %d: %w", sid, err)
		}
		segs = append(segs, geomSeg{a, b})
	}
	var out []POI
	for _, p := range ix.pois {
		for _, s := range segs {
			if geom.SegmentDist(p.At, s.a, s.b) <= d {
				out = append(out, p)
				break
			}
		}
	}
	return out, nil
}

// Overhead quantifies the privacy cost of a cloaked query: the ratio of
// candidate results to exact results (1.0 = free privacy; higher =
// more filtering work for the client). An exact result of zero yields the
// candidate count itself to keep the metric finite.
func Overhead(exact, cloaked int) float64 {
	if exact == 0 {
		return float64(cloaked)
	}
	return float64(cloaked) / float64(exact)
}

// GeneratePOIs places n POIs uniformly along the road network (by segment,
// then uniform along the segment), deterministically from the seed.
func GeneratePOIs(g *roadnet.Graph, n int, seedKey []byte) ([]POI, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative count", ErrBadQuery)
	}
	if g.NumSegments() == 0 && n > 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrBadQuery)
	}
	cur := prng.NewCursor(prng.New(seedKey, "query/pois"))
	out := make([]POI, 0, n)
	for i := 0; i < n; i++ {
		sid := roadnet.SegmentID(cur.Intn(g.NumSegments()))
		a, b, err := g.Endpoints(sid)
		if err != nil {
			return nil, fmt.Errorf("query: placing poi %d: %w", i, err)
		}
		t := cur.Float64()
		out = append(out, POI{ID: i, At: a.Lerp(b, t), Name: fmt.Sprintf("poi-%d", i)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
