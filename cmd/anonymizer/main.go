// Command anonymizer is the CLI counterpart of the toolkit's 'Anonymizer'
// GUI. The location data owner specifies the anonymization parameters — the
// number of anonymity levels, k per level, the spatial tolerance and the
// access keys ("Auto key generation" with -auto-keys) — anonymizes her
// location, inspects the colored multi-level regions over the road network,
// and writes the publishable region plus the secret keys to files
// ("upload" to the LBS provider, keys kept local).
//
// Besides the default one-shot cloaking mode, subcommands exercise and
// operate the service layer:
//
//	anonymizer serve   -addr :7080 -map small      # run the trusted server
//	anonymizer serve   -addr :7081 -data-dir d2 -replicate-from :7080
//	anonymizer serve   -addr :7080 -tenants tenants.json -admin-addr :9090
//	anonymizer serve   -addr :7080 -data-dir d1 -master-key-file keys.json
//	anonymizer loadgen -addr :7080 -clients 1,4,16,64
//	anonymizer loadgen -addr :7080 -tenant fleet -token SECRET
//	anonymizer backup  -addr :7080 -out backup.rca # hot backup a live server
//	anonymizer backup  -addr :7080 -since 12,0,7 -out delta.rca
//	anonymizer restore -in backup.rca -data-dir d2 # seed a fresh data dir
//	anonymizer restore -apply -in delta.rca -data-dir d2
//	anonymizer reshard -src d2 -dst d3 -shards 4   # offline shard migration
//	anonymizer dump    -data-dir d3                # deterministic state dump
//	anonymizer status  -addr :7081                 # replication role and lag
//	anonymizer promote -addr :7081                 # fail over to a follower
//
// loadgen sweeps the number of concurrent clients against a running server
// and reports req/s per step, demonstrating how the sharded, pipelined
// service scales with cores (with -read-addr it aims reads at a follower).
// backup/restore/reshard/dump are the data-dir lifecycle tools (each of
// restore/reshard/dump takes -master-key-file when the directory holds
// derived-key registrations), and serve -replicate-from / status /
// promote are the replication tools. With serve -master-key-file the
// server derives per-registration cloak keys from the epoch'd master
// keyring instead of journaling them (rotation is an edit to the file,
// hot-reloaded every -master-key-reload).
// With serve -tenants the server authenticates and rate-limits every
// connection (loadgen/backup/status/promote then take -tenant/-token),
// and -admin-addr exposes /metrics, /healthz, /readyz and pprof on a
// separate listener; docs/OPERATIONS.md is the runbook for all of it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/viz"
)

// regionFile is the published artifact written by -region-out.
type regionFile struct {
	Region *rc.CloakedRegion `json:"region"`
	// MapSeed lets the de-anonymizer rebuild the identical map.
	MapSeed string `json:"map_seed"`
	// Preset records which map generator built the graph.
	MapPreset string `json:"map_preset"`
	Algorithm string `json:"algorithm"`
	// ListLength is RPLE's T (0 for RGE).
	ListLength int `json:"list_length,omitempty"`
}

// keysFile is the secret artifact written by -keys-out.
type keysFile struct {
	Keys []string `json:"keys_hex"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := runServe(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer serve:", err)
				os.Exit(1)
			}
			return
		case "loadgen":
			if err := runLoadgen(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer loadgen:", err)
				os.Exit(1)
			}
			return
		case "backup":
			if err := runBackup(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer backup:", err)
				os.Exit(1)
			}
			return
		case "restore":
			if err := runRestore(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer restore:", err)
				os.Exit(1)
			}
			return
		case "reshard":
			if err := runReshard(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer reshard:", err)
				os.Exit(1)
			}
			return
		case "dump":
			if err := runDump(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer dump:", err)
				os.Exit(1)
			}
			return
		case "promote":
			if err := runPromote(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer promote:", err)
				os.Exit(1)
			}
			return
		case "status":
			if err := runStatus(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "anonymizer status:", err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		preset    = flag.String("map", "small", "map preset: small, atlanta, grid, figure1")
		seedStr   = flag.String("seed", "reversecloak-default-map-seed-01", "map+workload seed")
		cars      = flag.Int("cars", 2000, "workload size")
		userSeg   = flag.Int("user", 100, "user's segment ID")
		algorithm = flag.String("algorithm", "RGE", "RGE or RPLE")
		levels    = flag.Int("levels", 3, "number of keyed privacy levels")
		kList     = flag.String("k", "", "comma-separated k per level (default doubling from 10)")
		lList     = flag.String("l", "", "comma-separated l per level (default k/3)")
		sigma     = flag.Float64("sigma", 0, "base spatial tolerance in meters (0 = unbounded)")
		autoKeys  = flag.Bool("auto-keys", true, "auto-generate access keys")
		keysIn    = flag.String("keys", "", "hex keys file to reuse instead of -auto-keys")
		regionOut = flag.String("region-out", "", "write published region JSON here")
		keysOut   = flag.String("keys-out", "", "write secret keys JSON here")
		render    = flag.Bool("render", true, "render the cloak levels as ASCII")
		width     = flag.Int("width", 78, "render width")
		height    = flag.Int("height", 30, "render height")
	)
	flag.Parse()

	if err := run(args{
		preset: *preset, seedStr: *seedStr, cars: *cars, userSeg: *userSeg,
		algorithm: *algorithm, levels: *levels, kList: *kList, lList: *lList,
		sigma: *sigma, autoKeys: *autoKeys, keysIn: *keysIn,
		regionOut: *regionOut, keysOut: *keysOut,
		render: *render, width: *width, height: *height,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "anonymizer:", err)
		os.Exit(1)
	}
}

// args bundles the flag values.
type args struct {
	preset, seedStr, algorithm, kList, lList, keysIn, regionOut, keysOut string
	cars, userSeg, levels, width, height                                 int
	sigma                                                                float64
	autoKeys, render                                                     bool
}

func run(a args) error {
	g, err := mapgen.Preset(a.preset, []byte(a.seedStr))
	if err != nil {
		return err
	}
	sim, err := rc.NewSimulation(g, rc.WorkloadConfig{Cars: a.cars, Seed: []byte(a.seedStr)})
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}

	const rpleT = 16
	var engine *rc.Engine
	listLength := 0
	switch strings.ToUpper(a.algorithm) {
	case "RGE":
		engine, err = rc.NewRGEEngine(g, sim.UsersOn)
	case "RPLE":
		engine, err = rc.NewRPLEEngine(g, sim.UsersOn, rpleT)
		listLength = rpleT
	default:
		return fmt.Errorf("unknown algorithm %q", a.algorithm)
	}
	if err != nil {
		return fmt.Errorf("building engine: %w", err)
	}

	prof, err := buildProfile(a.levels, a.kList, a.lList, a.sigma)
	if err != nil {
		return err
	}

	var ks *rc.KeySet
	switch {
	case a.keysIn != "":
		raw, err := os.ReadFile(a.keysIn)
		if err != nil {
			return fmt.Errorf("reading keys: %w", err)
		}
		var kf keysFile
		if err := json.Unmarshal(raw, &kf); err != nil {
			return fmt.Errorf("parsing keys: %w", err)
		}
		ks, err = keys.DecodeHex(kf.Keys)
		if err != nil {
			return fmt.Errorf("decoding keys: %w", err)
		}
	case a.autoKeys:
		ks, err = rc.AutoGenerateKeys(len(prof.Levels))
		if err != nil {
			return fmt.Errorf("auto key generation: %w", err)
		}
	default:
		return fmt.Errorf("provide -keys or enable -auto-keys")
	}

	region, _, err := engine.Anonymize(rc.Request{
		UserSegment: rc.SegmentID(a.userSeg),
		Profile:     prof,
		Keys:        ks.All(),
	})
	if err != nil {
		return fmt.Errorf("anonymizing: %w", err)
	}
	fmt.Printf("anonymized segment %d: %d segments at level L%d (%s)\n",
		a.userSeg, len(region.Segments), region.PrivacyLevel(), a.algorithm)
	for i, lm := range region.Levels {
		fmt.Printf("  L%d: +%d segments (salt %d, sigma %.0f)\n", i+1, lm.Steps, lm.Salt, lm.SigmaS)
	}

	if a.render {
		layers, err := levelLayers(engine, region, ks, rc.SegmentID(a.userSeg))
		if err != nil {
			return err
		}
		art, err := viz.RenderASCII(g, a.width, a.height, layers...)
		if err != nil {
			return fmt.Errorf("rendering: %w", err)
		}
		fmt.Println(art)
	}

	if a.regionOut != "" {
		rf := regionFile{
			Region: region, MapSeed: a.seedStr, MapPreset: a.preset,
			Algorithm: strings.ToUpper(a.algorithm), ListLength: listLength,
		}
		if err := writeJSON(a.regionOut, rf); err != nil {
			return err
		}
		fmt.Println("published region written to", a.regionOut)
	}
	if a.keysOut != "" {
		if err := writeJSON(a.keysOut, keysFile{Keys: ks.EncodeHex()}); err != nil {
			return err
		}
		fmt.Println("secret keys written to", a.keysOut, "(distribute per trust level!)")
	}
	return nil
}

// buildProfile assembles the privacy profile from the flags.
func buildProfile(levels int, kList, lList string, sigma float64) (rc.Profile, error) {
	if levels < 1 {
		return rc.Profile{}, fmt.Errorf("need at least one level")
	}
	ks, err := parseInts(kList)
	if err != nil {
		return rc.Profile{}, fmt.Errorf("parsing -k: %w", err)
	}
	ls, err := parseInts(lList)
	if err != nil {
		return rc.Profile{}, fmt.Errorf("parsing -l: %w", err)
	}
	prof := rc.Profile{Levels: make([]rc.Level, levels)}
	k := 10
	for i := range prof.Levels {
		if i < len(ks) {
			k = ks[i]
		}
		l := k / 3
		if l < 2 {
			l = 2
		}
		if i < len(ls) {
			l = ls[i]
		}
		s := 0.0
		if sigma > 0 {
			s = sigma * float64(i+1)
		}
		prof.Levels[i] = rc.Level{K: k, L: l, SigmaS: s}
		if i >= len(ks) {
			k *= 2
		}
	}
	if err := prof.Validate(); err != nil {
		return rc.Profile{}, fmt.Errorf("profile: %w", err)
	}
	return prof, nil
}

// parseInts parses "10,20,40".
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// levelLayers renders every level by peeling with the owner's own keys.
func levelLayers(engine *rc.Engine, region *rc.CloakedRegion, ks *rc.KeySet, user rc.SegmentID) ([]viz.Layer, error) {
	glyphs := []rune{'1', '2', '3', '4', '5', '6', '7', '8', '9'}
	layers := []viz.Layer{{Segments: region.Segments, Glyph: glyphFor(glyphs, region.PrivacyLevel())}}
	for lv := region.PrivacyLevel() - 1; lv >= 1; lv-- {
		grant, err := ks.Grant(lv)
		if err != nil {
			return nil, err
		}
		out, err := engine.Deanonymize(region, grant, lv)
		if err != nil {
			return nil, fmt.Errorf("rendering level %d: %w", lv, err)
		}
		layers = append(layers, viz.Layer{Segments: out.Segments, Glyph: glyphFor(glyphs, lv)})
	}
	layers = append(layers, viz.Layer{Segments: []rc.SegmentID{user}, Glyph: '*'})
	return layers, nil
}

// glyphFor maps a level index to its display glyph.
func glyphFor(glyphs []rune, level int) rune {
	if level >= 1 && level <= len(glyphs) {
		return glyphs[level-1]
	}
	return '#'
}

// writeJSON writes v to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
