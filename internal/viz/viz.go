// Package viz renders road networks and cloaking regions as ASCII maps. It is the CLI substitute for the toolkit's Swing GUIs: the
// Anonymizer shows "several colored regions on the map" and the
// De-anonymizer "display[s] the reduced region over [the] road network".
package viz

import (
	"errors"
	"fmt"
	"strings"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Errors returned by renderers.
var (
	// ErrBadCanvas reports unusable render dimensions.
	ErrBadCanvas = errors.New("viz: bad canvas")
)

// Layer is a set of segments drawn with one glyph. Later layers overdraw
// earlier ones.
type Layer struct {
	Segments []roadnet.SegmentID
	Glyph    rune
}

// Canvas is a w x h character raster.
type Canvas struct {
	w, h  int
	cells []rune
}

// NewCanvas allocates a canvas filled with spaces.
func NewCanvas(w, h int) (*Canvas, error) {
	if w < 2 || h < 2 || w > 4096 || h > 4096 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadCanvas, w, h)
	}
	c := &Canvas{w: w, h: h, cells: make([]rune, w*h)}
	for i := range c.cells {
		c.cells[i] = ' '
	}
	return c, nil
}

// set paints one cell if it is inside the canvas.
func (c *Canvas) set(x, y int, ch rune) {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return
	}
	c.cells[y*c.w+x] = ch
}

// drawLine draws a Bresenham line between raster coordinates.
func (c *Canvas) drawLine(x0, y0, x1, y1 int, ch rune) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		c.set(x0, y0, ch)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// String renders the canvas row by row, top first.
func (c *Canvas) String() string {
	var b strings.Builder
	b.Grow((c.w + 1) * c.h)
	for y := 0; y < c.h; y++ {
		b.WriteString(strings.TrimRight(string(c.cells[y*c.w:(y+1)*c.w]), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderASCII draws the full network with the base glyph '.', then each
// layer in order. The map is fit to the canvas preserving aspect ratio.
func RenderASCII(g *roadnet.Graph, w, h int, layers ...Layer) (string, error) {
	c, err := NewCanvas(w, h)
	if err != nil {
		return "", err
	}
	bounds := g.Bounds()
	if bounds.Empty() {
		return c.String(), nil
	}
	proj := newProjection(bounds, w, h)

	drawSeg := func(sid roadnet.SegmentID, ch rune) {
		a, b, err := g.Endpoints(sid)
		if err != nil {
			return
		}
		x0, y0 := proj.raster(a)
		x1, y1 := proj.raster(b)
		c.drawLine(x0, y0, x1, y1, ch)
	}
	for i := 0; i < g.NumSegments(); i++ {
		drawSeg(roadnet.SegmentID(i), '.')
	}
	for _, layer := range layers {
		glyph := layer.Glyph
		if glyph == 0 {
			glyph = '#'
		}
		for _, sid := range layer.Segments {
			drawSeg(sid, glyph)
		}
	}
	return c.String(), nil
}

// projection maps map coordinates onto the raster.
type projection struct {
	bounds geom.BBox
	scale  float64
	w, h   int
}

func newProjection(bounds geom.BBox, w, h int) projection {
	sx := float64(w-1) / nonZero(bounds.Width())
	sy := float64(h-1) / nonZero(bounds.Height())
	s := sx
	if sy < s {
		s = sy
	}
	return projection{bounds: bounds, scale: s, w: w, h: h}
}

func (p projection) raster(pt geom.Point) (int, int) {
	x := int((pt.X - p.bounds.Min.X) * p.scale)
	// Screen Y grows downward.
	y := int((p.bounds.Max.Y - pt.Y) * p.scale)
	return x, y
}

func nonZero(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
