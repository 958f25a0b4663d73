package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/reversecloak/reversecloak/internal/metrics"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(*Env) (*metrics.Table, error)
}

// Experiments lists the harness experiments in order. E1-E4 are golden
// tests and CLI demos; the measured experiments start at E5.
func Experiments() []Experiment {
	return []Experiment{
		{"E5", "anonymization time & memory (RGE vs RPLE)", E5TimeMemory},
		{"E6", "cost vs number of levels", E6Levels},
		{"E7", "de-anonymization cost", E7Deanonymization},
		{"E8", "effect of delta_k", E8KSweep},
		{"E9", "effect of sigma_s", E9Tolerance},
		{"E10", "workload substrate", E10Workload},
		{"E11", "keyless adversary", E11Adversary},
		{"E12", "query QoS by level", E12QueryQoS},
		{"E13", "baseline comparison", E13Baselines},
		{"E14", "ablation: tags vs search", E14TagAblation},
		{"E15", "ablation: RPLE list length", E15ListLengthAblation},
	}
}

// RunAll builds the paper's environment, runs every experiment on it and
// streams the tables to w. A non-nil jsonW also receives one JSON document
// of the structured results (EXPERIMENTS.json).
func RunAll(w, jsonW io.Writer, opts Options) error {
	start := time.Now()
	env, err := NewEnv(opts)
	if err != nil {
		return err
	}
	return runAll(w, jsonW, env, time.Since(start))
}

// runAll runs every experiment on env; built is how long env took.
func runAll(w, jsonW io.Writer, env *Env, built time.Duration) error {
	fmt.Fprintf(w, "environment: %d junctions, %d segments, %d cars, %d trials/cell (built in %s)\n\n",
		env.G.NumJunctions(), env.G.NumSegments(), env.Sim.NumCars(),
		env.Opts.Trials, built.Round(time.Millisecond))
	set := &ResultSet{
		Junctions: env.G.NumJunctions(),
		Segments:  env.G.NumSegments(),
		Cars:      env.Sim.NumCars(),
		Trials:    env.Opts.Trials,
	}
	for _, ex := range Experiments() {
		t0 := time.Now()
		tab, err := ex.Run(env)
		if err != nil {
			return fmt.Errorf("%s (%s): %w", ex.ID, ex.Name, err)
		}
		fmt.Fprintln(w, tab.String())
		fmt.Fprintf(w, "[%s completed in %s]\n\n", ex.ID, time.Since(t0).Round(time.Millisecond))
		set.Experiments = append(set.Experiments, ExperimentResult{
			ID:      ex.ID,
			Name:    ex.Name,
			Title:   tab.Title(),
			Headers: tab.Headers(),
			Rows:    tab.Rows(),
			Seconds: time.Since(t0).Seconds(),
		})
	}
	if jsonW == nil {
		return nil
	}
	enc := json.NewEncoder(jsonW)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(set); err != nil {
		return fmt.Errorf("bench: writing results: %w", err)
	}
	return nil
}

// ExperimentResult is one experiment's machine-readable outcome.
type ExperimentResult struct {
	ID      string     `json:"id"`
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Seconds float64    `json:"seconds"`
}

// ResultSet is the machine-readable outcome of a full harness run: the
// checked-in EXPERIMENTS.json and the nightly CI artifact.
type ResultSet struct {
	Junctions   int                `json:"junctions"`
	Segments    int                `json:"segments"`
	Cars        int                `json:"cars"`
	Trials      int                `json:"trials"`
	Experiments []ExperimentResult `json:"experiments"`
}
