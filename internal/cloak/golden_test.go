package cloak

// Differential safety net for engine rewrites: one SHA-256 per request
// over everything the engine publishes or answers, checked in as
// testdata/engine_golden.json and compared on every run.
//
// The file was generated on the commit BEFORE the dense engine core
// (PR 17's parent) and pins that engine's behaviour bit for bit. Do not
// regenerate it to make a failing engine change pass: a mismatch means
// published regions, traces, reductions or the enumeration order moved.
// Regenerate only when a PR changes published bytes on purpose (and
// versions the region encoding):
//
//	GEN_ENGINE_GOLDEN=1 go test ./internal/cloak/ -run TestGenerateEngineGolden -count=1
//
// Only the exported API is used, so the generator compiles against any
// engine that keeps the package's contract.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

const goldenPath = "testdata/engine_golden.json"

// goldenSeed is the CLI's and the benchmark's default world seed.
const goldenSeed = "reversecloak-default-map-seed-01"

type goldenCase struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

type goldenFile struct {
	Note  string       `json:"note"`
	Cases []goldenCase `json:"cases"`
}

// goldenWorld is one map with its density source, both engines and the
// requesters and profiles its cases are the product of.
type goldenWorld struct {
	name     string
	g        *roadnet.Graph
	pre      *Preassignment
	engines  map[Algorithm]*Engine
	users    []roadnet.SegmentID
	profiles []goldenProfile
}

type goldenProfile struct {
	name string
	p    profile.Profile
}

func profileOf(lv ...profile.Level) profile.Profile { return profile.Profile{Levels: lv} }

// goldenProfiles: the default profile, an unbounded one that grows regions
// well past their frontier (tag fallbacks, exhausted searches) and a tight
// tolerance that filters candidates (stuck expansions, salt retries).
var goldenProfiles = []goldenProfile{
	{"default", profile.Default()},
	{"unbounded", profileOf(
		profile.Level{K: 10, L: 3}, profile.Level{K: 30, L: 12}, profile.Level{K: 70, L: 28})},
	{"tight", profileOf(
		profile.Level{K: 8, L: 3, SigmaS: 500}, profile.Level{K: 14, L: 5, SigmaS: 700},
		profile.Level{K: 24, L: 8, SigmaS: 1000})},
}

// figureProfiles suit the 24-segment Figure-1 map at one user a segment.
var figureProfiles = []goldenProfile{
	{"figure", profileOf(
		profile.Level{K: 3, L: 3}, profile.Level{K: 6, L: 6}, profile.Level{K: 9, L: 9})},
	{"unbounded", profileOf(
		profile.Level{K: 4, L: 4}, profile.Level{K: 10, L: 10}, profile.Level{K: 18, L: 18})},
	{"tight", profileOf(
		profile.Level{K: 3, L: 3, SigmaS: 620}, profile.Level{K: 5, L: 5, SigmaS: 920},
		profile.Level{K: 8, L: 8, SigmaS: 1180})},
}

// newGoldenWorld builds the engines of one world; pre is built here when
// the caller has none to share.
func newGoldenWorld(t testing.TB, name string, g *roadnet.Graph, pre *Preassignment, density DensityFunc,
	users []roadnet.SegmentID, profiles []goldenProfile) *goldenWorld {
	t.Helper()
	if pre == nil {
		var err error
		if pre, err = NewPreassignment(g, DefaultTransitionListLength); err != nil {
			t.Fatal(err)
		}
	}
	w := &goldenWorld{name: name, g: g, pre: pre, users: users, profiles: profiles,
		engines: map[Algorithm]*Engine{}}
	for _, algo := range []Algorithm{RGE, RPLE} {
		e, err := NewEngine(g, density, Options{Algorithm: algo, Pre: pre})
		if err != nil {
			t.Fatal(err)
		}
		w.engines[algo] = e
	}
	return w
}

// densityWeighted draws n requesters the way the benchmark does: the
// segment of a uniformly chosen car.
func densityWeighted(counts []int, n int, seed int64) []roadnet.SegmentID {
	cum := make([]int, len(counts))
	total := 0
	for i, c := range counts {
		total += c
		cum[i] = total
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]roadnet.SegmentID, n)
	for i := range out {
		out[i] = roadnet.SegmentID(sort.SearchInts(cum, r.Intn(total)+1))
	}
	return out
}

func simWorld(t testing.TB, name string, g *roadnet.Graph, pre *Preassignment, cars, users int) *goldenWorld {
	t.Helper()
	sim, err := trace.New(g, trace.Config{Cars: cars, Seed: []byte(goldenSeed)})
	if err != nil {
		t.Fatal(err)
	}
	return newGoldenWorld(t, name, g, pre, sim.UsersOn,
		densityWeighted(sim.Counts(), users, 17), goldenProfiles)
}

// atlanta is the paper-scale map with its RPLE tables, built once per test
// binary for the golden replay, the verification sweep and the paper
// benchmarks. Both are immutable; every user builds its own engines over
// them.
var atlanta struct {
	once sync.Once
	err  error
	g    *roadnet.Graph
	pre  *Preassignment
}

func atlantaTables(t testing.TB) (*roadnet.Graph, *Preassignment) {
	t.Helper()
	w := &atlanta
	w.once.Do(func() {
		if w.g, w.err = mapgen.AtlantaNW([]byte(goldenSeed)); w.err == nil {
			w.pre, w.err = NewPreassignment(w.g, DefaultTransitionListLength)
		}
	})
	if w.err != nil {
		t.Fatal(w.err)
	}
	return w.g, w.pre
}

// goldenWorlds builds the worlds of the golden set; atlanta only when
// paperScale is set (-short runs skip the paper scale).
func goldenWorlds(t testing.TB, paperScale bool) []*goldenWorld {
	t.Helper()
	fig, _, err := mapgen.FigureOne()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]roadnet.SegmentID, fig.NumSegments())
	for i := range all {
		all[i] = roadnet.SegmentID(i)
	}
	small, err := mapgen.Small([]byte(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	worlds := []*goldenWorld{
		newGoldenWorld(t, "figure1", fig, nil, constDensity(1), all, figureProfiles),
		simWorld(t, "small", small, nil, 600, 30),
	}
	if paperScale {
		atl, pre := atlantaTables(t)
		worlds = append(worlds, simWorld(t, "atlanta", atl, pre, 10000, 16))
	}
	return worlds
}

// goldenKey is the fixed key of one (case, purpose).
func goldenKey(name, purpose string) []byte {
	sum := sha256.Sum256([]byte("engine-golden/" + name + "/" + purpose))
	return sum[:]
}

func hashJSON(h hash.Hash, label string, v any, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s: error %v\n", label, err)
		return
	}
	b, jerr := json.Marshal(v)
	if jerr != nil {
		panic(jerr)
	}
	fmt.Fprintf(h, "%s: %s\n", label, b)
}

// goldenOutcome is what one case did, for the coverage assertions.
type goldenOutcome struct {
	sha     string
	refused bool
	tagged  int
	retries int
}

// goldenRequest is one case of the golden set: its world, algorithm, name
// and the request, keyed by the name.
type goldenRequest struct {
	w    *goldenWorld
	algo Algorithm
	name string
	req  Request
}

// keysByLevel maps the request's keys by level, as Deanonymize takes them.
func (gr goldenRequest) keysByLevel() map[int][]byte {
	m := make(map[int][]byte, len(gr.req.Keys))
	for i, k := range gr.req.Keys {
		m[i+1] = k
	}
	return m
}

// goldenRequests lists the cases of the worlds in a fixed order.
func goldenRequests(worlds []*goldenWorld) []goldenRequest {
	var out []goldenRequest
	for _, w := range worlds {
		for _, algo := range []Algorithm{RGE, RPLE} {
			for _, gp := range w.profiles {
				for i, user := range w.users {
					name := fmt.Sprintf("%s/%v/%s/%02d-seg%d", w.name, algo, gp.name, i, user)
					ks := make([][]byte, len(gp.p.Levels))
					for l := range ks {
						ks[l] = goldenKey(name, fmt.Sprintf("level%d", l+1))
					}
					out = append(out, goldenRequest{w: w, algo: algo, name: name,
						req: Request{UserSegment: user, Profile: gp.p, Keys: ks}})
				}
			}
		}
	}
	return out
}

// runGoldenCase digests one request: the published region, the trace, the
// reduction to every level (multi-level peel from the top, which threads
// the start-head hint, and level by level on the reduced region, which
// cannot) and the ambiguity enumeration of the top level under a wrong
// key.
func runGoldenCase(gr goldenRequest) goldenOutcome {
	e, ks := gr.w.engines[gr.algo], gr.req.Keys
	n := len(ks)
	h := sha256.New()
	var out goldenOutcome
	cr, tr, err := e.Anonymize(gr.req)
	hashJSON(h, "region", cr, err)
	if err != nil {
		out.refused = true
		out.sha = hex.EncodeToString(h.Sum(nil))
		return out
	}
	hashJSON(h, "trace", tr, nil)
	for _, lm := range cr.Levels {
		if lm.Tags != nil {
			out.tagged++
		}
		out.retries += int(lm.Salt)
	}
	byLevel := gr.keysByLevel()
	for to := n - 1; to >= 0; to-- {
		red, err := e.Deanonymize(cr, byLevel, to)
		hashJSON(h, fmt.Sprintf("peel-to-%d", to), red, err)
	}
	cur := cr
	for lv := n; lv >= 1 && cur != nil; lv-- {
		red, err := e.Deanonymize(cur, map[int][]byte{lv: ks[lv-1]}, lv-1)
		hashJSON(h, fmt.Sprintf("single-%d", lv), red, err)
		cur = red
	}
	top := cr.Levels[n-1]
	chains, err := EnumerateReversals(gr.w.g, gr.algo, gr.w.pre, cr.Segments, top.Steps,
		goldenKey(gr.name, "wrong"), n, top.Salt, top.SigmaS, 8)
	hashJSON(h, "enumerate-wrong-key", chains, err)
	out.sha = hex.EncodeToString(h.Sum(nil))
	return out
}

// forEachGoldenCase runs every case of the worlds in a fixed order.
func forEachGoldenCase(worlds []*goldenWorld, fn func(name string, out goldenOutcome)) {
	for _, gr := range goldenRequests(worlds) {
		fn(gr.name, runGoldenCase(gr))
	}
}

func TestGenerateEngineGolden(t *testing.T) {
	if os.Getenv("GEN_ENGINE_GOLDEN") == "" {
		t.Skip("golden generator; set GEN_ENGINE_GOLDEN=1 to run (see the file comment first)")
	}
	gf := goldenFile{Note: "one SHA-256 per request over region JSON, trace, every reduction and " +
		"the wrong-key enumeration; generated by TestGenerateEngineGolden on the map-backed engine " +
		"(the parent of the dense core) — do not regenerate to make an engine change pass"}
	var refused, tagged, retried int
	forEachGoldenCase(goldenWorlds(t, true), func(name string, out goldenOutcome) {
		gf.Cases = append(gf.Cases, goldenCase{Name: name, SHA256: out.sha})
		if out.refused {
			refused++
		}
		if out.tagged > 0 {
			tagged++
		}
		if out.retries > 0 {
			retried++
		}
	})
	t.Logf("%d cases: %d refused, %d with a tagged level, %d with a salt retry",
		len(gf.Cases), refused, tagged, retried)
	b, err := json.MarshalIndent(gf, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineGolden replays every golden case and compares digests. Under
// -short the paper-scale world is skipped; its cases must then simply be
// absent from the replay, never different.
func TestEngineGolden(t *testing.T) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(b, &gf); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(gf.Cases))
	for _, c := range gf.Cases {
		want[c.Name] = c.SHA256
	}
	if len(want) < 300 {
		t.Fatalf("golden file holds %d cases, want >= 300", len(want))
	}
	seen, bad := 0, 0
	var tagged, retried, refused int
	worlds := goldenWorlds(t, !testing.Short())
	forEachGoldenCase(worlds, func(name string, out goldenOutcome) {
		seen++
		if out.tagged > 0 {
			tagged++
		}
		if out.retries > 0 {
			retried++
		}
		if out.refused {
			refused++
		}
		sha, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: not in the golden file", name)
		case sha != out.sha:
			if bad++; bad <= 10 {
				t.Errorf("%s: digest %s, golden %s", name, out.sha, sha)
			}
		}
	})
	if bad > 10 {
		t.Errorf("... and %d more mismatches", bad-10)
	}
	if !testing.Short() && seen != len(want) {
		t.Errorf("replayed %d cases, golden file holds %d", seen, len(want))
	}
	// The set must keep exercising every way a level can be settled,
	// including a search that ran out of budget (which only the engine's
	// own counters show).
	var exhausted uint64
	for _, w := range worlds {
		for _, e := range w.engines {
			exhausted += e.Stats().SearchesExhausted
		}
	}
	if tagged == 0 || retried == 0 || refused == 0 || exhausted == 0 {
		t.Errorf("coverage lost: %d tagged, %d retried, %d refused cases, %d exhausted searches",
			tagged, retried, refused, exhausted)
	}
}
