// Package mapgen synthesizes road networks at configurable scale.
//
// The paper evaluates ReverseCloak on "a real road network map of [the]
// northwest part of Atlanta, involving 6979 junctions and 9187 segments,
// obtained from maps of [the] National Mapping Division of the USGS". That
// dataset is not redistributable, so this package generates synthetic
// networks with the same structural properties the cloaking algorithms are
// sensitive to: connectivity, segment-per-junction density (~1.32 for the
// Atlanta extract), varying segment lengths and an organic, non-convex
// footprint. The AtlantaNW preset matches the paper's junction and segment
// counts exactly.
//
// Generation is fully deterministic given the seed key, so every experiment
// is reproducible bit-for-bit.
package mapgen

import (
	"errors"
	"fmt"

	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Errors returned by Generate.
var (
	// ErrInfeasible reports a configuration that cannot produce a connected
	// network (for example more segments than adjacent junction pairs).
	ErrInfeasible = errors.New("mapgen: infeasible configuration")
)

// Config describes a synthetic network. Junction positions start on a unit
// grid, the network is grown as a connected blob of grid cells, and then
// positions are jittered so segment lengths vary like real road data.
type Config struct {
	// Junctions is the exact number of junctions to place.
	Junctions int
	// Segments is the exact number of segments to create. Must be at least
	// Junctions-1 (spanning tree) and at most the number of adjacent pairs
	// available in the grown blob (roughly 2x junctions).
	Segments int
	// Spacing is the grid pitch in meters. Defaults to 150 (a typical city
	// block) when zero.
	Spacing float64
	// Jitter is the maximum junction displacement as a fraction of Spacing,
	// in [0, 0.45]. Defaults to 0.3 when zero.
	Jitter float64
	// Seed keys the deterministic generator. Required.
	Seed []byte
}

// cell is a grid coordinate during growth.
type cell struct{ x, y int }

var cardinal = [4]cell{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// Generate synthesizes a connected road network per cfg.
func Generate(cfg Config) (*roadnet.Graph, error) {
	if cfg.Junctions < 2 {
		return nil, fmt.Errorf("%w: need at least 2 junctions, got %d", ErrInfeasible, cfg.Junctions)
	}
	if cfg.Segments < cfg.Junctions-1 {
		return nil, fmt.Errorf("%w: %d segments cannot connect %d junctions",
			ErrInfeasible, cfg.Segments, cfg.Junctions)
	}
	if len(cfg.Seed) == 0 {
		return nil, fmt.Errorf("%w: seed is required", ErrInfeasible)
	}
	spacing := cfg.Spacing
	if spacing == 0 {
		spacing = 150
	}
	jitter := cfg.Jitter
	if jitter == 0 {
		jitter = 0.3
	}
	if jitter < 0 || jitter > 0.45 {
		return nil, fmt.Errorf("%w: jitter %v outside [0, 0.45]", ErrInfeasible, jitter)
	}

	cur := prng.NewCursor(prng.New(cfg.Seed, "mapgen"))

	// Phase 1: grow a connected blob of grid cells. Each new cell attaches to
	// a random already-placed neighbour, giving a spanning tree.
	placed := make(map[cell]roadnet.JunctionID, cfg.Junctions)
	order := make([]cell, 0, cfg.Junctions)
	b := roadnet.NewBuilder(cfg.Junctions, cfg.Segments)

	place := func(c cell) roadnet.JunctionID {
		base := geom.Point{X: float64(c.x) * spacing, Y: float64(c.y) * spacing}
		dx := (cur.Float64()*2 - 1) * jitter * spacing
		dy := (cur.Float64()*2 - 1) * jitter * spacing
		id := b.AddJunction(base.Add(geom.Point{X: dx, Y: dy}))
		placed[c] = id
		order = append(order, c)
		return id
	}

	start := cell{0, 0}
	place(start)
	// Boundary: cells that may still have empty neighbours.
	boundary := []cell{start}
	for len(placed) < cfg.Junctions {
		if len(boundary) == 0 {
			return nil, fmt.Errorf("%w: growth stalled at %d junctions", ErrInfeasible, len(placed))
		}
		bi := cur.Intn(len(boundary))
		c := boundary[bi]
		var empty []cell
		for _, d := range cardinal {
			n := cell{c.x + d.x, c.y + d.y}
			if _, ok := placed[n]; !ok {
				empty = append(empty, n)
			}
		}
		if len(empty) == 0 {
			boundary[bi] = boundary[len(boundary)-1]
			boundary = boundary[:len(boundary)-1]
			continue
		}
		n := empty[cur.Intn(len(empty))]
		nid := place(n)
		if _, err := b.AddSegment(placed[c], nid); err != nil {
			return nil, fmt.Errorf("mapgen: tree edge: %w", err)
		}
		boundary = append(boundary, n)
	}

	// Phase 2: add extra edges between adjacent placed cells until the exact
	// segment count is reached.
	need := cfg.Segments - b.NumSegments()
	if need > 0 {
		var extras [][2]roadnet.JunctionID
		for _, c := range order {
			for _, d := range [2]cell{{1, 0}, {0, 1}} { // each pair once
				n := cell{c.x + d.x, c.y + d.y}
				nid, ok := placed[n]
				if !ok {
					continue
				}
				if !b.HasSegmentBetween(placed[c], nid) {
					extras = append(extras, [2]roadnet.JunctionID{placed[c], nid})
				}
			}
		}
		if len(extras) < need {
			return nil, fmt.Errorf("%w: only %d extra adjacencies available, need %d",
				ErrInfeasible, len(extras), need)
		}
		cur.Shuffle(len(extras), func(i, j int) { extras[i], extras[j] = extras[j], extras[i] })
		for i := 0; i < need; i++ {
			if _, err := b.AddSegment(extras[i][0], extras[i][1]); err != nil {
				return nil, fmt.Errorf("mapgen: extra edge: %w", err)
			}
		}
	}

	return b.Build(), nil
}

// AtlantaNW generates a network matching the scale of the paper's USGS
// Atlanta-NW extract: exactly 6,979 junctions and 9,187 segments.
func AtlantaNW(seed []byte) (*roadnet.Graph, error) {
	return Generate(Config{
		Junctions: 6979,
		Segments:  9187,
		Spacing:   150,
		Jitter:    0.3,
		Seed:      seed,
	})
}

// Small generates a ~400-junction network with the Atlanta segment density,
// sized for unit tests and examples.
func Small(seed []byte) (*roadnet.Graph, error) {
	return Generate(Config{
		Junctions: 400,
		Segments:  527, // same 1.316 segments/junction density
		Spacing:   120,
		Jitter:    0.3,
		Seed:      seed,
	})
}

// Preset builds the named map the command-line tools share: "small",
// "atlanta", "grid" (16x16 junctions, 120 m apart) or "figure1" (the Fig. 1
// graph). The seed keys the generated presets; grid and figure1 ignore it.
func Preset(name string, seed []byte) (*roadnet.Graph, error) {
	switch name {
	case "small":
		return Small(seed)
	case "atlanta":
		return AtlantaNW(seed)
	case "grid":
		return Grid(16, 16, 120)
	case "figure1":
		g, _, err := FigureOne()
		return g, err
	default:
		return nil, fmt.Errorf("unknown map preset %q", name)
	}
}

// Grid generates an exact cols x rows grid network with uniform spacing and
// no jitter. Useful for tests that need predictable topology.
func Grid(cols, rows int, spacing float64) (*roadnet.Graph, error) {
	if cols < 1 || rows < 1 || cols*rows < 2 {
		return nil, fmt.Errorf("%w: grid %dx%d too small", ErrInfeasible, cols, rows)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("%w: spacing must be positive", ErrInfeasible)
	}
	b := roadnet.NewBuilder(cols*rows, 2*cols*rows)
	ids := make([][]roadnet.JunctionID, rows)
	for y := 0; y < rows; y++ {
		ids[y] = make([]roadnet.JunctionID, cols)
		for x := 0; x < cols; x++ {
			ids[y][x] = b.AddJunction(geom.Point{X: float64(x) * spacing, Y: float64(y) * spacing})
		}
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				if _, err := b.AddSegment(ids[y][x], ids[y][x+1]); err != nil {
					return nil, fmt.Errorf("mapgen: grid edge: %w", err)
				}
			}
			if y+1 < rows {
				if _, err := b.AddSegment(ids[y][x], ids[y+1][x]); err != nil {
					return nil, fmt.Errorf("mapgen: grid edge: %w", err)
				}
			}
		}
	}
	return b.Build(), nil
}
