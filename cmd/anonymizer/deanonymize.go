package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/viz"
)

// runDeanonymize is the CLI counterpart of the toolkit's 'De-anonymizer'
// GUI: a location data requester loads a published region (as uploaded to
// the LBS provider), supplies whatever access keys they were granted, peels
// the cloak down to their entitled privacy level and views the reduced
// region over the road network.
func runDeanonymize(argv []string) error {
	fs := flag.NewFlagSet("deanonymize", flag.ExitOnError)
	var (
		regionIn = fs.String("region", "", "published region JSON (required)")
		keysIn   = fs.String("keys", "", "hex keys JSON; omit to view the public region only")
		toLevel  = fs.Int("level", 0, "privacy level to reduce to")
		render   = fs.Bool("render", true, "render the reduced region as ASCII")
		width    = fs.Int("width", 78, "render width")
		height   = fs.Int("height", 30, "render height")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	_, err := deanonymize(*regionIn, *keysIn, *toLevel, *render, *width, *height)
	return err
}

// deanonymize prints the published region in regionIn and, with keysIn,
// reduces it to toLevel. It returns the region it showed.
func deanonymize(regionIn, keysIn string, toLevel int, render bool, width, height int) (*rc.CloakedRegion, error) {
	if regionIn == "" {
		return nil, fmt.Errorf("-region is required")
	}
	raw, err := os.ReadFile(regionIn)
	if err != nil {
		return nil, fmt.Errorf("reading region: %w", err)
	}
	var rf regionFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("parsing region: %w", err)
	}
	if rf.Region == nil {
		return nil, fmt.Errorf("region file has no region")
	}
	if rf.MapPreset == "" {
		rf.MapPreset = "small"
	}
	g, err := mapgen.Preset(rf.MapPreset, []byte(rf.MapSeed))
	if err != nil {
		return nil, err
	}

	// Reversal needs no density information: a dean-only engine.
	var engine *rc.Engine
	switch strings.ToUpper(rf.Algorithm) {
	case "RGE", "":
		engine, err = rc.NewRGEEngine(g, nil)
	case "RPLE":
		engine, err = rc.NewRPLEEngine(g, nil, rf.ListLength)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", rf.Algorithm)
	}
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}

	fmt.Printf("published region: %d segments at level L%d (%s)\n",
		len(rf.Region.Segments), rf.Region.PrivacyLevel(), rf.Algorithm)

	reduced := rf.Region
	if keysIn != "" {
		ks, err := readKeysFile(keysIn)
		if err != nil {
			return nil, err
		}
		grant, err := ks.Grant(toLevel)
		if err != nil {
			return nil, fmt.Errorf("building grant: %w", err)
		}
		reduced, err = engine.Deanonymize(rf.Region, grant, toLevel)
		if err != nil {
			return nil, fmt.Errorf("de-anonymizing: %w", err)
		}
		fmt.Printf("reduced to level L%d: %d segments\n", toLevel, len(reduced.Segments))
		if len(reduced.Segments) == 1 {
			seg, err := g.Segment(reduced.Segments[0])
			if err == nil {
				fmt.Printf("exact location: segment %d %s\n", seg.ID, seg.Name)
			}
		}
	} else {
		fmt.Println("no keys supplied: showing the public region only")
	}

	if render {
		art, err := viz.RenderASCII(g, width, height,
			viz.Layer{Segments: rf.Region.Segments, Glyph: 'o'},
			viz.Layer{Segments: reduced.Segments, Glyph: '#'},
		)
		if err != nil {
			return nil, fmt.Errorf("rendering: %w", err)
		}
		fmt.Println("\nmap ('.'=road, 'o'=published cloak, '#'=your reduced view):")
		fmt.Println(art)
	}
	return reduced, nil
}
