// Command rcdemo replays the paper's Fig. 1 walkthrough on the 24-segment
// demonstration graph: it cloaks the user's segment s18 through three
// privacy levels, renders each region over the road network, then peels
// the levels off one key at a time.
package main

import (
	"flag"
	"fmt"
	"os"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/viz"
)

func main() {
	algorithm := flag.String("algorithm", "RGE", "cloaking algorithm: RGE or RPLE")
	width := flag.Int("width", 72, "ASCII map width")
	height := flag.Int("height", 26, "ASCII map height")
	flag.Parse()
	if err := run(*algorithm, *width, *height); err != nil {
		fmt.Fprintln(os.Stderr, "rcdemo:", err)
		os.Exit(1)
	}
}

func run(algorithm string, width, height int) error {
	g, s18, err := mapgen.FigureOne()
	if err != nil {
		return fmt.Errorf("building figure graph: %w", err)
	}

	var engine *rc.Engine
	density := func(rc.SegmentID) int { return 1 }
	switch algorithm {
	case "RGE", "rge":
		engine, err = rc.NewRGEEngine(g, density)
	case "RPLE", "rple":
		engine, err = rc.NewRPLEEngine(g, density, 8)
	default:
		return fmt.Errorf("unknown algorithm %q", algorithm)
	}
	if err != nil {
		return fmt.Errorf("building engine: %w", err)
	}

	// Fig. 1's level structure: +2, +3, +3 segments over L0 = {s18}.
	prof := rc.Profile{Levels: []rc.Level{
		{K: 3, L: 3},
		{K: 6, L: 6},
		{K: 9, L: 9},
	}}
	ks, err := rc.AutoGenerateKeys(3)
	if err != nil {
		return fmt.Errorf("generating keys: %w", err)
	}

	region, trace, err := engine.Anonymize(rc.Request{
		UserSegment: s18, Profile: prof, Keys: ks.All(),
	})
	if err != nil {
		return fmt.Errorf("anonymizing: %w", err)
	}

	name := func(id rc.SegmentID) string {
		seg, err := g.Segment(id)
		if err != nil {
			return "?"
		}
		return seg.Name
	}
	names := func(ids []rc.SegmentID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = name(id)
		}
		return out
	}

	fmt.Printf("ReverseCloak Fig. 1 walkthrough (%s)\n\n", algorithm)
	fmt.Printf("L0: user's segment            %v\n", name(s18))
	for li, seq := range trace.LevelSeqs {
		fmt.Printf("L%d: Key%d adds %d segments     %v\n", li+1, li+1, len(seq), names(seq))
	}

	layers := []viz.Layer{
		{Segments: region.Segments, Glyph: '3'},
	}
	l2Keys, err := ks.Grant(2)
	if err != nil {
		return err
	}
	l2, err := engine.Deanonymize(region, l2Keys, 2)
	if err != nil {
		return fmt.Errorf("reducing to L2: %w", err)
	}
	l1Keys, err := ks.Grant(1)
	if err != nil {
		return err
	}
	l1, err := engine.Deanonymize(region, l1Keys, 1)
	if err != nil {
		return fmt.Errorf("reducing to L1: %w", err)
	}
	layers = append(layers,
		viz.Layer{Segments: l2.Segments, Glyph: '2'},
		viz.Layer{Segments: l1.Segments, Glyph: '1'},
		viz.Layer{Segments: []rc.SegmentID{s18}, Glyph: '*'},
	)

	art, err := viz.RenderASCII(g, width, height, layers...)
	if err != nil {
		return fmt.Errorf("rendering: %w", err)
	}
	fmt.Println("\nmap ('.'=road, '3'/'2'/'1'=cloak levels, '*'=actual user):")
	fmt.Println(art)

	fmt.Println("de-anonymization:")
	fmt.Printf("  with Key3:            L3 (%d segs) -> L2 (%d segs)\n",
		len(region.Segments), len(l2.Segments))
	fmt.Printf("  with Key3+Key2:       L3 (%d segs) -> L1 (%d segs)\n",
		len(region.Segments), len(l1.Segments))
	l0Keys, err := ks.Grant(0)
	if err != nil {
		return err
	}
	l0, err := engine.Deanonymize(region, l0Keys, 0)
	if err != nil {
		return fmt.Errorf("reducing to L0: %w", err)
	}
	fmt.Printf("  with all keys:        L3 (%d segs) -> L0 = %s (the actual user)\n",
		len(region.Segments), name(l0.Segments[0]))
	return nil
}
