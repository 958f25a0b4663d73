// Command benchmark is the repository's end-to-end and per-layer
// benchmark: it starts a real `anonymizer serve` child process per
// workload, drives it over loopback TCP, checks every answer, and prints
// every metric by name and unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: register_paper, reduce_cold, reduce_hot, mixed_dense")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Int("seconds", runSeconds, "measured length the request counts are scaled to")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		bin          = flag.String("bin", ".bench_build/bin/anonymizer", "built cmd/anonymizer")
		benchDir     = flag.String("bench-dir", "benchmark", "this directory (key file, tenants file, out/)")
		workDir      = flag.String("work-dir", ".bench_build/work", "scratch directory for server data dirs")
		repeat       = flag.Int("repeat", 0, "run every workload this many times and check each gated metric's spread against its bound")
		baseline     = flag.String("baseline", "", "with -repeat: also write the runs to this file (benchmark/BASELINE.json)")
		describeOnly = flag.Bool("describe", false, "print BENCHMARK.json as this package defines it, and exit")
	)
	flag.Parse()
	if *describeOnly {
		raw, err := describeJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		_, _ = os.Stdout.Write(raw)
		return
	}
	runtime.GOMAXPROCS(generatorProcs())

	cfg := &runConfig{
		bin: *bin, benchDir: *benchDir, workDir: *workDir,
		seed: *seed, seconds: *seconds, procs: &children{},
	}
	// A signal must not leave a server behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cfg.procs.killAll()
		os.Exit(130)
	}()

	code, err := dispatch(cfg, *workloadName, *traced, *repeat, *baseline)
	cfg.procs.killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func dispatch(cfg *runConfig, workloadName string, traced, repeat int, baseline string) (int, error) {
	if cfg.seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.bin); err != nil {
		return 2, fmt.Errorf("%s: %w (run through benchmark/run.sh, which builds it)", cfg.bin, err)
	}
	for _, f := range []string{"master-key.json", "tenants.json"} {
		if _, err := os.Stat(filepath.Join(cfg.benchDir, f)); err != nil {
			return 2, err
		}
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return 2, err
	}
	if repeat > 0 {
		return runRepeat(cfg, repeat, baseline)
	}
	w, err := findWorkload(workloadName)
	if err != nil {
		return 2, err
	}
	var out *outcome
	if traced != 0 {
		out, err = tracedOutcome(cfg, w)
	} else {
		out, err = e2eOutcome(cfg, w)
	}
	if err != nil {
		return 2, err
	}
	if err := out.print(os.Stdout); err != nil {
		return 2, err
	}
	if !out.Correct {
		return 1, nil
	}
	return 0, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result: the report for people, then the one JSON
// line the driver reads.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	report []string
	absent []string // optional metrics this run had no source for
}

func (o *outcome) notef(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, value float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metricValue{}
	}
	o.Metrics[name] = metricValue{Value: value, Unit: unit}
}

// count adds a phase's attempts and failures to the outcome.
func (o *outcome) count(st *phaseStats) {
	o.Attempted += st.attempt
	o.Failed += st.failed
	if st.failed > 0 {
		o.Correct = false
		for _, e := range st.errs {
			o.notef("  ! %s", e)
		}
	}
}

// setOptional sets a metric whose source may be absent on this workload;
// an absent one reads 0 and is named in the report.
func (o *outcome) setOptional(name string, value float64, ok bool, unit string) {
	if !ok {
		o.absent = append(o.absent, name)
		value = 0
	}
	o.set(name, value, unit)
}

func (o *outcome) print(f *os.File) error {
	for _, line := range o.report {
		if _, err := fmt.Fprintln(f, line); err != nil {
			return err
		}
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
