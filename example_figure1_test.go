package reversecloak_test

import (
	"crypto/sha256"
	"fmt"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/viz"
)

// Example_figureOne replays the paper's Fig. 1 walkthrough on the
// 24-segment demonstration graph: it cloaks the user's segment s18 through
// three privacy levels (+2, +3, +3 segments), draws each level over the
// road network, then peels the levels off one key at a time. The keys are
// fixed digests rather than AutoGenerateKeys, so every run prints the same
// regions.
func Example_figureOne() {
	if err := figureOne(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// L0: user's segment [s18]
	// L1: Key1 adds 2 segments [s4 s13]
	// L2: Key2 adds 3 segments [s22 s14 s7]
	// L3: Key3 adds 3 segments [s5 s21 s2]
	// map ('.'=road, '3'/'2'/'1'=cloak levels, '*'=actual user):
	// 3.......2................
	// 3       2       .       .
	// 3       2       .       .
	// 3       2       .       .
	// 3       2       .       .
	// 3       2       .       .
	// 3       2       .       .
	// 3       2       .       .
	// 22222222*................
	// .       *       .       .
	// .       *       .       .
	// .       *       .       .
	// .       *       .       .
	// .       *       .       .
	// .       *       .       .
	// .       *       .       .
	// 11111111*33333333........
	// 1       2       .       .
	// 1       2       .       .
	// 1       2       .       .
	// 1       2       .       .
	// 1       2       .       .
	// 1       2       .       .
	// 1       2       .       .
	// 1.......233333333........
	//
	// Key3:           L3 (9 segs) -> L2 (6 segs)
	// Key3+Key2:      L3 (9 segs) -> L1 (3 segs)
	// Key3+Key2+Key1: L3 (9 segs) -> L0 = [s18]
}

func figureOne() error {
	g, s18, err := mapgen.FigureOne()
	if err != nil {
		return err
	}
	// One user per segment: k segments meet k-anonymity.
	engine, err := rc.NewRGEEngine(g, func(rc.SegmentID) int { return 1 })
	if err != nil {
		return err
	}
	prof := rc.Profile{Levels: []rc.Level{{K: 3, L: 3}, {K: 6, L: 6}, {K: 9, L: 9}}}
	raw := make([][]byte, len(prof.Levels))
	for i := range raw {
		sum := sha256.Sum256([]byte(fmt.Sprintf("figure-1 key %d", i+1)))
		raw[i] = sum[:]
	}
	ks, err := keys.FromBytes(raw)
	if err != nil {
		return err
	}
	region, trace, err := engine.Anonymize(rc.Request{UserSegment: s18, Profile: prof, Keys: ks.All()})
	if err != nil {
		return err
	}

	names := func(ids []rc.SegmentID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			seg, err := g.Segment(id)
			if err != nil {
				out[i] = "?"
				continue
			}
			out[i] = seg.Name
		}
		return out
	}
	fmt.Println("L0: user's segment", names([]rc.SegmentID{s18}))
	for li, seq := range trace.LevelSeqs {
		fmt.Printf("L%d: Key%d adds %d segments %v\n", li+1, li+1, len(seq), names(seq))
	}

	// peeled[lv] is the region reduced to level lv with keys lv+1..3.
	peeled := make([]*rc.CloakedRegion, region.PrivacyLevel())
	for lv := range peeled {
		grant, err := ks.Grant(lv)
		if err != nil {
			return err
		}
		if peeled[lv], err = engine.Deanonymize(region, grant, lv); err != nil {
			return err
		}
	}

	art, err := viz.RenderASCII(g, 72, 26,
		viz.Layer{Segments: region.Segments, Glyph: '3'},
		viz.Layer{Segments: peeled[2].Segments, Glyph: '2'},
		viz.Layer{Segments: peeled[1].Segments, Glyph: '1'},
		viz.Layer{Segments: []rc.SegmentID{s18}, Glyph: '*'},
	)
	if err != nil {
		return err
	}
	fmt.Println("map ('.'=road, '3'/'2'/'1'=cloak levels, '*'=actual user):")
	fmt.Print(art)

	fmt.Printf("Key3:           L3 (%d segs) -> L2 (%d segs)\n", len(region.Segments), len(peeled[2].Segments))
	fmt.Printf("Key3+Key2:      L3 (%d segs) -> L1 (%d segs)\n", len(region.Segments), len(peeled[1].Segments))
	fmt.Printf("Key3+Key2+Key1: L3 (%d segs) -> L0 = %v\n", len(region.Segments), names(peeled[0].Segments))
	return nil
}
