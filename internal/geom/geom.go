// Package geom provides the planar geometry primitives used by the road
// network substrate: points, bounding boxes and polylines in a local
// meter-based coordinate frame.
//
// ReverseCloak operates on road networks extracted from projected map data
// (the paper uses the USGS Atlanta-NW map). All coordinates here are planar
// meters; no geodesic math is required at city scale.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the planar map frame, in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{X: p.X * f, Y: p.Y * f} }

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Midpoint returns the midpoint of p and q.
func Midpoint(p, q Point) Point { return p.Lerp(q, 0.5) }

// BBox is an axis-aligned bounding box. The zero value is an *empty* box:
// it contains no points and extending it with any point yields a degenerate
// box at that point.
type BBox struct {
	Min   Point `json:"min"`
	Max   Point `json:"max"`
	valid bool
}

// NewBBox returns a bounding box spanning the two corner points in any order.
func NewBBox(a, b Point) BBox {
	return BBox{
		Min:   Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max:   Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
		valid: true,
	}
}

// Empty reports whether the box contains no points.
func (b BBox) Empty() bool { return !b.valid }

// Extend returns the smallest box containing both b and p.
func (b BBox) Extend(p Point) BBox {
	if !b.valid {
		return BBox{Min: p, Max: p, valid: true}
	}
	return BBox{
		Min:   Point{X: math.Min(b.Min.X, p.X), Y: math.Min(b.Min.Y, p.Y)},
		Max:   Point{X: math.Max(b.Max.X, p.X), Y: math.Max(b.Max.Y, p.Y)},
		valid: true,
	}
}

// Union returns the smallest box containing both boxes.
func (b BBox) Union(o BBox) BBox {
	if !b.valid {
		return o
	}
	if !o.valid {
		return b
	}
	return b.Extend(o.Min).Extend(o.Max)
}

// Contains reports whether p lies inside or on the boundary of b.
func (b BBox) Contains(p Point) bool {
	if !b.valid {
		return false
	}
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Width returns the horizontal extent of the box in meters.
func (b BBox) Width() float64 {
	if !b.valid {
		return 0
	}
	return b.Max.X - b.Min.X
}

// Height returns the vertical extent of the box in meters.
func (b BBox) Height() float64 {
	if !b.valid {
		return 0
	}
	return b.Max.Y - b.Min.Y
}

// Diagonal returns the length of the box diagonal in meters. The paper's
// spatial tolerance sigma_s bounds the maximum spatial resolution of a
// cloaking region; we measure a region's extent as the diagonal of its
// bounding box.
func (b BBox) Diagonal() float64 {
	if !b.valid {
		return 0
	}
	return b.Min.Dist(b.Max)
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	if !b.valid {
		return "BBox(empty)"
	}
	return fmt.Sprintf("BBox[%v %v]", b.Min, b.Max)
}

// Polyline is an open chain of points, used for segment geometry.
type Polyline []Point

// Length returns the total length of the polyline in meters.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].Dist(pl[i])
	}
	return total
}

// Bounds returns the bounding box of the polyline.
func (pl Polyline) Bounds() BBox {
	var b BBox
	for _, p := range pl {
		b = b.Extend(p)
	}
	return b
}

// At returns the point a fraction t (clamped to [0,1]) along the polyline by
// arc length. An empty polyline returns the zero point; a single-point
// polyline returns that point.
func (pl Polyline) At(t float64) Point {
	switch len(pl) {
	case 0:
		return Point{}
	case 1:
		return pl[0]
	}
	if t <= 0 {
		return pl[0]
	}
	if t >= 1 {
		return pl[len(pl)-1]
	}
	target := pl.Length() * t
	var walked float64
	for i := 1; i < len(pl); i++ {
		step := pl[i-1].Dist(pl[i])
		if walked+step >= target {
			if step == 0 {
				return pl[i]
			}
			return pl[i-1].Lerp(pl[i], (target-walked)/step)
		}
		walked += step
	}
	return pl[len(pl)-1]
}

// SegmentDist returns the distance from point p to the line segment ab.
func SegmentDist(p, a, b Point) float64 {
	ab := b.Sub(a)
	len2 := ab.X*ab.X + ab.Y*ab.Y
	if len2 == 0 {
		return p.Dist(a)
	}
	t := ((p.X-a.X)*ab.X + (p.Y-a.Y)*ab.Y) / len2
	t = math.Max(0, math.Min(1, t))
	return p.Dist(a.Add(ab.Scale(t)))
}
