// Command deanonymizer is the CLI counterpart of the toolkit's
// 'De-anonymizer' GUI: a location data requester loads a published region
// (as uploaded to the LBS provider), supplies whatever access keys she was
// granted, peels the cloak down to her entitled privacy level and views the
// reduced region over the road network.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/viz"
)

// regionFile mirrors cmd/anonymizer's published artifact.
type regionFile struct {
	Region     *rc.CloakedRegion `json:"region"`
	MapSeed    string            `json:"map_seed"`
	MapPreset  string            `json:"map_preset"`
	Algorithm  string            `json:"algorithm"`
	ListLength int               `json:"list_length,omitempty"`
}

// keysFile mirrors cmd/anonymizer's secret artifact.
type keysFile struct {
	Keys []string `json:"keys_hex"`
}

func main() {
	var (
		regionIn = flag.String("region", "", "published region JSON (required)")
		keysIn   = flag.String("keys", "", "hex keys JSON; omit to view the public region only")
		toLevel  = flag.Int("level", 0, "privacy level to reduce to")
		render   = flag.Bool("render", true, "render the reduced region as ASCII")
		width    = flag.Int("width", 78, "render width")
		height   = flag.Int("height", 30, "render height")
	)
	flag.Parse()
	if err := run(*regionIn, *keysIn, *toLevel, *render, *width, *height); err != nil {
		fmt.Fprintln(os.Stderr, "deanonymizer:", err)
		os.Exit(1)
	}
}

func run(regionIn, keysIn string, toLevel int, render bool, width, height int) error {
	if regionIn == "" {
		return fmt.Errorf("-region is required")
	}
	raw, err := os.ReadFile(regionIn)
	if err != nil {
		return fmt.Errorf("reading region: %w", err)
	}
	var rf regionFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return fmt.Errorf("parsing region: %w", err)
	}
	if rf.Region == nil {
		return fmt.Errorf("region file has no region")
	}

	// Region files written before the preset was recorded are on "small".
	if rf.MapPreset == "" {
		rf.MapPreset = "small"
	}
	g, err := mapgen.Preset(rf.MapPreset, []byte(rf.MapSeed))
	if err != nil {
		return err
	}

	// The de-anonymizer needs no density information: a dean-only engine.
	var engine *rc.Engine
	switch strings.ToUpper(rf.Algorithm) {
	case "RGE", "":
		engine, err = rc.NewRGEEngine(g, nil)
	case "RPLE":
		engine, err = rc.NewRPLEEngine(g, nil, rf.ListLength)
	default:
		return fmt.Errorf("unknown algorithm %q", rf.Algorithm)
	}
	if err != nil {
		return fmt.Errorf("building engine: %w", err)
	}

	fmt.Printf("published region: %d segments at level L%d (%s)\n",
		len(rf.Region.Segments), rf.Region.PrivacyLevel(), rf.Algorithm)

	reduced := rf.Region
	if keysIn != "" {
		kraw, err := os.ReadFile(keysIn)
		if err != nil {
			return fmt.Errorf("reading keys: %w", err)
		}
		var kf keysFile
		if err := json.Unmarshal(kraw, &kf); err != nil {
			return fmt.Errorf("parsing keys: %w", err)
		}
		ks, err := keys.DecodeHex(kf.Keys)
		if err != nil {
			return fmt.Errorf("decoding keys: %w", err)
		}
		grant, err := ks.Grant(toLevel)
		if err != nil {
			return fmt.Errorf("building grant: %w", err)
		}
		reduced, err = engine.Deanonymize(rf.Region, grant, toLevel)
		if err != nil {
			return fmt.Errorf("de-anonymizing: %w", err)
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
		layers := []viz.Layer{
			{Segments: rf.Region.Segments, Glyph: 'o'},
			{Segments: reduced.Segments, Glyph: '#'},
		}
		art, err := viz.RenderASCII(g, width, height, layers...)
		if err != nil {
			return fmt.Errorf("rendering: %w", err)
		}
		fmt.Println("\nmap ('.'=road, 'o'=published cloak, '#'=your reduced view):")
		fmt.Println(art)
	}
	return nil
}
