package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/metrics"
)

func seed() []byte { return []byte("bench-test-seed-0123456789abcdef") }

// testEnv builds the harness on the small map, cars at the paper's density,
// to keep harness tests fast.
func testEnv(t *testing.T, trials int) *Env {
	t.Helper()
	g, err := mapgen.Small(seed())
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	env, err := newEnv(g, Options{Seed: seed(), Trials: trials})
	if err != nil {
		t.Fatalf("newEnv: %v", err)
	}
	return env
}

func TestNewEnvDefaults(t *testing.T) {
	if _, err := NewEnv(Options{}); err == nil {
		t.Error("missing seed must fail")
	}
	// The harness's one scale is the paper's setup.
	env, err := NewEnv(Options{Seed: seed()})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	if env.G.NumJunctions() != 6979 || env.G.NumSegments() != 9187 || env.Sim.NumCars() != 10000 {
		t.Errorf("env sized %d/%d/%d, want 6979/9187/10000",
			env.G.NumJunctions(), env.G.NumSegments(), env.Sim.NumCars())
	}
	if env.Opts.Trials != 15 {
		t.Errorf("trials = %d, want 15", env.Opts.Trials)
	}
	if env.PreBuildTime <= 0 {
		t.Error("preassignment build time missing")
	}
	if env.Engine(0) != env.RGE || env.Engine(2) != env.RPLE {
		t.Error("Engine dispatch wrong")
	}
	// A smaller map keeps the paper's density: 527 segments, 573 cars.
	small := testEnv(t, 4)
	if small.G.NumSegments() != 527 || small.Sim.NumCars() != 573 {
		t.Errorf("small env sized %d segments / %d cars", small.G.NumSegments(), small.Sim.NumCars())
	}
}

func TestSampleUsersDeterministic(t *testing.T) {
	env := testEnv(t, 4)
	a := env.SampleUsers(5, "x")
	b := env.SampleUsers(5, "x")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("samples must be deterministic per label")
		}
	}
	c := env.SampleUsers(5, "y")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different labels should sample differently")
	}
}

// TestExperimentsProduceTables runs every experiment at a tiny scale and
// checks each yields a non-empty table.
func TestExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	env := testEnv(t, 4)
	for _, ex := range Experiments() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tab, err := ex.Run(env)
			if err != nil {
				t.Fatalf("%s: %v", ex.ID, err)
			}
			out := tab.String()
			if len(out) < 40 {
				t.Errorf("%s produced suspiciously small output:\n%s", ex.ID, out)
			}
		})
	}
}

func TestRunAllStreamsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	var buf, jsonBuf bytes.Buffer
	// One run covers both surfaces: the tables streamed as text and the
	// machine-readable artifact.
	if err := runAll(&buf, &jsonBuf, testEnv(t, 3), 0); err != nil {
		t.Fatalf("runAll: %v", err)
	}
	out := buf.String()
	ids := []string{"E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
	for _, id := range ids {
		if !strings.Contains(out, "["+id+" completed") {
			t.Errorf("missing experiment %s in output", id)
		}
	}
	var set ResultSet
	if err := json.Unmarshal(jsonBuf.Bytes(), &set); err != nil {
		t.Fatalf("results artifact is not valid JSON: %v", err)
	}
	if set.Segments != 527 || set.Cars != 573 || set.Trials != 3 {
		t.Errorf("artifact environment %d segments / %d cars / %d trials", set.Segments, set.Cars, set.Trials)
	}
	if len(set.Experiments) != len(ids) {
		t.Fatalf("artifact has %d experiments, want %d", len(set.Experiments), len(ids))
	}
	for i, res := range set.Experiments {
		if res.ID != ids[i] {
			t.Errorf("experiment %d = %s, want %s", i, res.ID, ids[i])
		}
		if len(res.Rows) == 0 || len(res.Headers) != len(res.Rows[0]) {
			t.Errorf("%s: artifact entry has %d rows under %d headers", res.ID, len(res.Rows), len(res.Headers))
		}
	}
	// Without a JSON writer only the text is written.
	var textOnly bytes.Buffer
	if err := runAll(&textOnly, nil, testEnv(t, 1), 0); err != nil {
		t.Fatalf("runAll without JSON: %v", err)
	}
	if !strings.Contains(textOnly.String(), "[E15 completed") {
		t.Error("text-only run is missing E15")
	}
}

// TestEmptyCellsRenderAsDash pins that a mean over no samples never reads
// as a zero-cost measurement: a row with no successes shows "-".
func TestEmptyCellsRenderAsDash(t *testing.T) {
	var none, some metrics.Stats
	some.Add(2.5)
	if got := meanDuration(none); got != "-" {
		t.Errorf("meanDuration(no samples) = %q, want -", got)
	}
	if got := meanOf("%.1f", none); got != "-" {
		t.Errorf("meanOf(no samples) = %q, want -", got)
	}
	if got := meanOf("%.1f", some); got != "2.5" {
		t.Errorf("meanOf(2.5) = %q", got)
	}
	// With no users sampled no request succeeds: E8's rows and E11's
	// "mean chains when accepted" have nothing to average.
	env := testEnv(t, 1)
	env.Opts.Trials = 0
	e8, err := E8KSweep(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e8.Rows() {
		want := []string{row[0], "-", "-", "-", "-", "0/0"}
		if strings.Join(row, "|") != strings.Join(want, "|") {
			t.Errorf("E8 row with no successes reads %q, want %q", row, want)
		}
	}
	e11, err := E11Adversary(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e11.Rows() {
		if row[0] == "mean chains when accepted" && (row[1] != "-" || row[2] != "-") {
			t.Errorf("E11 mean chains with nothing accepted reads %q", row)
		}
	}
}

func TestUniformProfileShape(t *testing.T) {
	p := uniformProfile(3, 12)
	if len(p.Levels) != 3 {
		t.Fatalf("levels = %d", len(p.Levels))
	}
	if p.Levels[0].K != 12 || p.Levels[1].K != 24 || p.Levels[2].K != 48 {
		t.Errorf("k progression wrong: %+v", p.Levels)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("profile invalid: %v", err)
	}
}

func TestKeyHelpers(t *testing.T) {
	env := testEnv(t, 4)
	ks := env.keysFor("t", 3)
	if len(ks) != 3 {
		t.Fatalf("keys = %d", len(ks))
	}
	km := keyMap(ks)
	if len(km) != 3 || km[1] == nil || km[3] == nil {
		t.Errorf("keyMap = %v", km)
	}
	// Deterministic.
	ks2 := env.keysFor("t", 3)
	if string(ks[0]) != string(ks2[0]) {
		t.Error("keysFor must be deterministic")
	}
}
