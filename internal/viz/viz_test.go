package viz

import (
	"errors"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func grid(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := mapgen.Grid(6, 6, 100)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRenderASCIIBaseMap(t *testing.T) {
	g := grid(t)
	out, err := RenderASCII(g, 40, 20)
	if err != nil {
		t.Fatalf("RenderASCII: %v", err)
	}
	if !strings.Contains(out, ".") {
		t.Error("base map glyph missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 20 {
		t.Errorf("rendered %d lines for height 20", len(lines))
	}
}

func TestRenderASCIILayersOverdraw(t *testing.T) {
	g := grid(t)
	out, err := RenderASCII(g, 60, 30, Layer{
		Segments: []roadnet.SegmentID{0, 1, 2},
		Glyph:    '#',
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") {
		t.Error("layer glyph missing")
	}
	// Default glyph when none set.
	out2, err := RenderASCII(g, 60, 30, Layer{Segments: []roadnet.SegmentID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "#") {
		t.Error("default glyph missing")
	}
}

func TestRenderASCIIBadCanvas(t *testing.T) {
	g := grid(t)
	if _, err := RenderASCII(g, 1, 10); !errors.Is(err, ErrBadCanvas) {
		t.Errorf("tiny canvas err = %v", err)
	}
	if _, err := RenderASCII(g, 10000, 10); !errors.Is(err, ErrBadCanvas) {
		t.Errorf("huge canvas err = %v", err)
	}
}

func TestRenderASCIIEmptyGraph(t *testing.T) {
	g := roadnet.NewBuilder(0, 0).Build()
	out, err := RenderASCII(g, 10, 5)
	if err != nil {
		t.Fatalf("empty graph render: %v", err)
	}
	if strings.ContainsAny(out, ".#") {
		t.Error("empty graph should render blank")
	}
}

func TestCanvasDrawLineClipping(t *testing.T) {
	c, err := NewCanvas(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Line partially outside the canvas must not panic.
	c.drawLine(-5, -5, 15, 15, 'x')
	if !strings.Contains(c.String(), "x") {
		t.Error("clipped line should still draw inside portion")
	}
}
