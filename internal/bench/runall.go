package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// jsonMarshal is indirected for testability.
func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

// Experiment is one runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(*Env) (fmt.Stringer, error)
}

// Experiments lists the harness experiments in order. E1-E4 are golden
// tests and CLI demos; the measured experiments start at
// E5. fullScaleE10 switches E10 to the paper's full 6979/9187/10000 setup.
func Experiments(fullScaleE10 bool) []Experiment {
	return []Experiment{
		{"E5", "anonymization time & memory (RGE vs RPLE)", wrap(E5TimeMemory)},
		{"E6", "cost vs number of levels", wrap(E6Levels)},
		{"E7", "de-anonymization cost", wrap(E7Deanonymization)},
		{"E8", "effect of delta_k", wrap(E8KSweep)},
		{"E9", "effect of sigma_s", wrap(E9Tolerance)},
		{"E10", "workload substrate", func(e *Env) (fmt.Stringer, error) {
			return E10Workload(e, fullScaleE10)
		}},
		{"E11", "keyless adversary", wrap(E11Adversary)},
		{"E12", "query QoS by level", wrap(E12QueryQoS)},
		{"E13", "baseline comparison", wrap(E13Baselines)},
		{"E14", "ablation: tags vs search", wrap(E14TagAblation)},
		{"E15", "ablation: RPLE list length", wrap(E15ListLengthAblation)},
		{"E16", "service throughput by concurrency", wrap(E16ServiceThroughput)},
		{"E17", "durable store overhead by fsync policy", wrap(E17DurabilityOverhead)},
		{"E18", "group commit fsync=always recovery", wrap(E18GroupCommit)},
		{"E19", "replicated read throughput and lag", wrap(E19ReplicatedReads)},
		{"E21", "store-wide group commit batching", wrap(E21GroupCommitBatching)},
		{"E22", "stored vs derived key records", wrap(E22DerivedKeys)},
		{"E23", "reduce cache throughput vs size and skew", wrap(E23ReduceCache)},
	}
}

// selectExperiments filters the experiment list to the IDs in only
// (case-sensitive, e.g. "E17"); an empty only keeps everything. Unknown
// IDs are an error so a typo in a CI smoke step fails loudly instead of
// silently running nothing.
func selectExperiments(all []Experiment, only []string) ([]Experiment, error) {
	if len(only) == 0 {
		return all, nil
	}
	byID := make(map[string]Experiment, len(all))
	for _, ex := range all {
		byID[ex.ID] = ex
	}
	out := make([]Experiment, 0, len(only))
	for _, id := range only {
		ex, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("bench: unknown experiment %q", id)
		}
		out = append(out, ex)
	}
	return out, nil
}

// wrap adapts the concrete experiment signatures.
func wrap[T fmt.Stringer](f func(*Env) (T, error)) func(*Env) (fmt.Stringer, error) {
	return func(e *Env) (fmt.Stringer, error) {
		return f(e)
	}
}

// RunAll executes every experiment and streams the tables to w.
func RunAll(w io.Writer, opts Options, fullScaleE10 bool) error {
	_, err := runAll(w, opts, fullScaleE10)
	return err
}

// runAll executes every experiment, streaming tables to w and collecting
// the structured results.
func runAll(w io.Writer, opts Options, fullScaleE10 bool) (*ResultSet, error) {
	start := time.Now()
	env, err := NewEnv(opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "environment: %d junctions, %d segments, %d cars, %d trials/cell (built in %s)\n\n",
		env.G.NumJunctions(), env.G.NumSegments(), env.Sim.NumCars(),
		env.Opts.Trials, time.Since(start).Round(time.Millisecond))
	set := &ResultSet{
		Junctions: env.G.NumJunctions(),
		Segments:  env.G.NumSegments(),
		Cars:      env.Sim.NumCars(),
		Trials:    env.Opts.Trials,
	}
	selected, err := selectExperiments(Experiments(fullScaleE10), opts.Only)
	if err != nil {
		return nil, err
	}
	for _, ex := range selected {
		t0 := time.Now()
		tab, err := ex.Run(env)
		if err != nil {
			return nil, fmt.Errorf("%s (%s): %w", ex.ID, ex.Name, err)
		}
		fmt.Fprintln(w, tab.String())
		fmt.Fprintf(w, "[%s completed in %s]\n\n", ex.ID, time.Since(t0).Round(time.Millisecond))
		res := ExperimentResult{
			ID: ex.ID, Name: ex.Name,
			Seconds: time.Since(t0).Seconds(),
		}
		if st, ok := tab.(tabular); ok {
			res.Title = st.Title()
			res.Headers = st.Headers()
			res.Rows = st.Rows()
		} else {
			res.Text = tab.String()
		}
		set.Experiments = append(set.Experiments, res)
	}
	return set, nil
}

// tabular is the structured view a result may expose beyond fmt.Stringer;
// *metrics.Table satisfies it.
type tabular interface {
	Title() string
	Headers() []string
	Rows() [][]string
}

// ExperimentResult is one experiment's machine-readable outcome.
type ExperimentResult struct {
	ID      string     `json:"id"`
	Name    string     `json:"name"`
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// Text is the rendered table for results without structured access.
	Text    string  `json:"text,omitempty"`
	Seconds float64 `json:"seconds"`
}

// ResultSet is the machine-readable outcome of a full harness run, the
// payload CI uploads as the nightly bench artifact.
type ResultSet struct {
	Junctions   int                `json:"junctions"`
	Segments    int                `json:"segments"`
	Cars        int                `json:"cars"`
	Trials      int                `json:"trials"`
	Experiments []ExperimentResult `json:"experiments"`
}

// RunAllJSON executes every experiment once, streaming the human-readable
// tables to textW while writing one JSON document of the structured
// results to jsonW (the nightly CI artifact). Pass io.Discard as textW to
// suppress the tables.
func RunAllJSON(textW, jsonW io.Writer, opts Options, fullScaleE10 bool) error {
	set, err := runAll(textW, opts, fullScaleE10)
	if err != nil {
		return err
	}
	raw, err := jsonMarshal(set)
	if err != nil {
		return fmt.Errorf("bench: encoding results: %w", err)
	}
	if _, err := jsonW.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("bench: writing results: %w", err)
	}
	return nil
}
