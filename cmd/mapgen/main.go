// Command mapgen generates synthetic road networks and writes them as JSON
// for the other tools. The "atlanta" preset matches the scale of the
// paper's USGS Atlanta-NW evaluation map (6,979 junctions, 9,187 segments).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

func main() {
	preset := flag.String("preset", "small", "map preset: atlanta, small, grid, figure1")
	junctions := flag.Int("junctions", 0, "custom junction count (overrides preset)")
	segments := flag.Int("segments", 0, "custom segment count (with -junctions)")
	cols := flag.Int("cols", 12, "grid preset: columns")
	rows := flag.Int("rows", 12, "grid preset: rows")
	spacing := flag.Float64("spacing", 150, "junction spacing in meters")
	seedStr := flag.String("seed", "reversecloak-default-map-seed-01", "generation seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if err := run(*preset, *junctions, *segments, *cols, *rows, *spacing, *seedStr, *out); err != nil {
		fmt.Fprintln(os.Stderr, "mapgen:", err)
		os.Exit(1)
	}
}

func run(preset string, junctions, segments, cols, rows int, spacing float64, seedStr, out string) error {
	seed := []byte(seedStr)
	var (
		g   *roadnet.Graph
		err error
	)
	switch {
	case junctions > 0:
		g, err = mapgen.Generate(mapgen.Config{
			Junctions: junctions, Segments: segments, Spacing: spacing, Seed: seed,
		})
	case preset == "grid":
		// Unlike the shared 16x16 grid preset, sized by -cols/-rows/-spacing.
		g, err = mapgen.Grid(cols, rows, spacing)
	default:
		g, err = mapgen.Preset(preset, seed)
	}
	if err != nil {
		return fmt.Errorf("generating: %w", err)
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", out, err)
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	if err := g.WriteJSON(w); err != nil {
		return fmt.Errorf("writing: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mapgen: %d junctions, %d segments\n",
		g.NumJunctions(), g.NumSegments())
	return nil
}
