package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Point{1, 2}.Add(Point{3, 4}), Point{4, 6}},
		{"sub", Point{1, 2}.Sub(Point{3, 4}), Point{-2, -2}},
		{"scale", Point{1, 2}.Scale(2.5), Point{2.5, 5}},
		{"lerp-mid", Point{0, 0}.Lerp(Point{10, 20}, 0.5), Point{5, 10}},
		{"lerp-start", Point{0, 0}.Lerp(Point{10, 20}, 0), Point{0, 0}},
		{"lerp-end", Point{0, 0}.Lerp(Point{10, 20}, 1), Point{10, 20}},
		{"midpoint", Midpoint(Point{2, 2}, Point{4, 6}), Point{3, 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same", Point{1, 1}, Point{1, 1}, 0},
		{"horizontal", Point{0, 0}, Point{3, 0}, 3},
		{"vertical", Point{0, 0}, Point{0, 4}, 4},
		{"pythagorean", Point{0, 0}, Point{3, 4}, 5},
		{"negative", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want) {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by int32) bool {
		a := Point{X: float64(ax), Y: float64(ay)}
		b := Point{X: float64(bx), Y: float64(by)}
		return almostEqual(a.Dist(b), b.Dist(a)) && a.Dist(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{X: float64(ax), Y: float64(ay)}
		b := Point{X: float64(bx), Y: float64(by)}
		c := Point{X: float64(cx), Y: float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxZeroValueEmpty(t *testing.T) {
	var b BBox
	if !b.Empty() {
		t.Fatal("zero BBox should be empty")
	}
	if b.Contains(Point{0, 0}) {
		t.Error("empty box should contain nothing")
	}
	if b.Width() != 0 || b.Height() != 0 || b.Diagonal() != 0 {
		t.Error("empty box should have zero extent and diagonal")
	}
	ext := b.Extend(Point{5, 5})
	if ext.Empty() || !ext.Contains(Point{5, 5}) {
		t.Error("extending an empty box should produce a point box")
	}
	if ext.Width() != 0 || ext.Height() != 0 {
		t.Error("point box has zero extent")
	}
}

func TestBBoxBasics(t *testing.T) {
	b := NewBBox(Point{10, 0}, Point{0, 10})
	if b.Min != (Point{0, 0}) || b.Max != (Point{10, 10}) {
		t.Fatalf("corner normalization failed: %v", b)
	}
	if b.Width() != 10 || b.Height() != 10 {
		t.Errorf("dims = %v x %v, want 10 x 10", b.Width(), b.Height())
	}
	if !almostEqual(b.Diagonal(), math.Sqrt(200)) {
		t.Errorf("diagonal = %v", b.Diagonal())
	}
	for _, p := range []Point{{0, 0}, {10, 10}, {5, 5}, {0, 10}} {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	for _, p := range []Point{{-1, 5}, {11, 5}, {5, -0.1}, {5, 10.1}} {
		if b.Contains(p) {
			t.Errorf("box should not contain %v", p)
		}
	}
}

func TestBBoxUnion(t *testing.T) {
	a := NewBBox(Point{0, 0}, Point{5, 5})
	c := NewBBox(Point{6, 0}, Point{8, 3}) // disjoint from a
	u := a.Union(c)
	if u.Min != (Point{0, 0}) || u.Max != (Point{8, 5}) {
		t.Errorf("union = %v", u)
	}

	var empty BBox
	if got := empty.Union(a); got != a {
		t.Errorf("empty union a = %v, want a", got)
	}
	if got := a.Union(empty); got != a {
		t.Errorf("a union empty = %v, want a", got)
	}
}

func TestBBoxExtendContainsProperty(t *testing.T) {
	f := func(pts []struct{ X, Y int16 }) bool {
		var b BBox
		ps := make([]Point, 0, len(pts))
		for _, p := range pts {
			pt := Point{X: float64(p.X), Y: float64(p.Y)}
			ps = append(ps, pt)
			b = b.Extend(pt)
		}
		for _, p := range ps {
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolylineLength(t *testing.T) {
	tests := []struct {
		name string
		pl   Polyline
		want float64
	}{
		{"empty", nil, 0},
		{"single", Polyline{{0, 0}}, 0},
		{"straight", Polyline{{0, 0}, {3, 4}}, 5},
		{"two-legs", Polyline{{0, 0}, {3, 0}, {3, 4}}, 7},
		{"degenerate-repeat", Polyline{{1, 1}, {1, 1}, {1, 1}}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.pl.Length(); !almostEqual(got, tt.want) {
				t.Errorf("Length = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPolylineAt(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}, {10, 10}}
	tests := []struct {
		t    float64
		want Point
	}{
		{-0.5, Point{0, 0}},
		{0, Point{0, 0}},
		{0.25, Point{5, 0}},
		{0.5, Point{10, 0}},
		{0.75, Point{10, 5}},
		{1, Point{10, 10}},
		{1.5, Point{10, 10}},
	}
	for _, tt := range tests {
		got := pl.At(tt.t)
		if !almostEqual(got.X, tt.want.X) || !almostEqual(got.Y, tt.want.Y) {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if (Polyline{}).At(0.5) != (Point{}) {
		t.Error("empty polyline should return zero point")
	}
	if (Polyline{{7, 7}}).At(0.5) != (Point{7, 7}) {
		t.Error("single-point polyline should return that point")
	}
}

func TestPolylineAtOnZeroLength(t *testing.T) {
	pl := Polyline{{3, 3}, {3, 3}}
	got := pl.At(0.5)
	if got != (Point{3, 3}) {
		t.Errorf("At on zero-length polyline = %v", got)
	}
}

func TestSegmentDist(t *testing.T) {
	tests := []struct {
		name    string
		p, a, b Point
		want    float64
	}{
		{"perpendicular", Point{5, 5}, Point{0, 0}, Point{10, 0}, 5},
		{"beyond-a", Point{-3, 4}, Point{0, 0}, Point{10, 0}, 5},
		{"beyond-b", Point{13, 4}, Point{0, 0}, Point{10, 0}, 5},
		{"on-segment", Point{5, 0}, Point{0, 0}, Point{10, 0}, 0},
		{"degenerate", Point{3, 4}, Point{0, 0}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentDist(tt.p, tt.a, tt.b); !almostEqual(got, tt.want) {
				t.Errorf("SegmentDist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPolylineBounds(t *testing.T) {
	pl := Polyline{{1, 2}, {-3, 7}, {4, 0}}
	b := pl.Bounds()
	if b.Min != (Point{-3, 0}) || b.Max != (Point{4, 7}) {
		t.Errorf("bounds = %v", b)
	}
	if !(Polyline{}).Bounds().Empty() {
		t.Error("empty polyline should have empty bounds")
	}
}
