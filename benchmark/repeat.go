package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// baselineFile is what -baseline writes: where and on what the runs were
// made, every run's metrics, and the per-metric summary they were judged
// by.
type baselineFile struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	DataDirFS  string             `json:"data_dir_filesystem"`
	RunSeconds int                `json:"run_seconds"`
	Seeds      []int64            `json:"seeds"`
	Workloads  []baselineWorkload `json:"workloads"`
}

type baselineWorkload struct {
	Name    string                `json:"name"`
	Runs    []map[string]float64  `json:"runs"` // one per seed, metric -> value
	Summary []baselineMetricStats `json:"summary"`
}

type baselineMetricStats struct {
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"` // (Q3-Q1)/median
	Bound  float64 `json:"bound"`
}

// runRepeat is the benchmark's self-check: every workload runs k times,
// each time under another seed, and every gated metric's spread across
// those runs must stay within the metric's bound — the condition under
// which a later change's medians can be held against this commit's. Each
// run is a process of its own, as the driver's are: a harness that has
// already made thirty runs has a heap, and a generator, unlike a fresh
// one's.
func runRepeat(cfg *runConfig, k int, baselinePath string) (int, error) {
	base := baselineFile{
		Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		DataDirFS: filesystemOf(cfg.workDir), RunSeconds: cfg.seconds,
	}
	for i := 0; i < k; i++ {
		base.Seeds = append(base.Seeds, cfg.seed+int64(i))
	}
	exit := 0
	digests := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		bw := baselineWorkload{Name: w.name}
		values := map[string]sample{}
		for _, seed := range base.Seeds {
			t0 := time.Now()
			out, report, err := runChildHarness(cfg, w.name, seed)
			if err != nil {
				return 2, fmt.Errorf("%s, seed %d: %w", w.name, seed, err)
			}
			if !out.Correct {
				exit = 1
				fmt.Print(report)
			}
			if m := digestLine.FindStringSubmatch(report); m != nil {
				digests[m[1]] = true
			}
			row := map[string]float64{}
			for name, v := range out.Metrics {
				row[name] = v.Value
				values[name] = append(values[name], v.Value)
			}
			bw.Runs = append(bw.Runs, row)
			fmt.Printf("%-15s seed %-3d %5.1fs  failed %d/%d\n", w.name, seed, time.Since(t0).Seconds(), out.Failed, out.Attempted)
		}
		fmt.Printf("%-15s %-22s %12s %12s %12s %8s %6s\n", w.name, "metric", "min", "median", "max", "spread", "bound")
		for _, m := range endToEnd {
			v := values[m.Name]
			sorted := v.sorted()
			st := baselineMetricStats{
				Metric: m.Name, Unit: m.Unit, Min: sorted[0], Median: v.median(),
				Max: sorted[len(sorted)-1], Spread: v.spread(), Bound: m.Bound,
			}
			bw.Summary = append(bw.Summary, st)
			verdict := ""
			// setup_s is judged on its median only, like the driver does.
			if st.Spread > st.Bound && m.Name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				exit = 1
			}
			fmt.Printf("%-15s %-22s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n",
				"", m.Name+" ["+m.Unit+"]", st.Min, st.Median, st.Max, st.Spread, st.Bound, verdict)
		}
		base.Workloads = append(base.Workloads, bw)
	}
	if len(digests) > 1 {
		fmt.Println("reduce_cold and reduce_hot answered the same (region, level) differently")
		exit = 1
	}
	if baselinePath != "" {
		raw, err := json.MarshalIndent(base, "", " ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(baselinePath, append(raw, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	return exit, nil
}

// digestLine finds the reduce workloads' answer digest in a run's report.
var digestLine = regexp.MustCompile(`reductions, digest ([0-9a-f]{16})`)

// runChildHarness makes one untraced run in a process of its own and
// returns its result line, parsed, and everything it printed.
func runChildHarness(cfg *runConfig, workload string, seed int64) (*outcome, string, error) {
	cmd := exec.Command(os.Args[0],
		"-bin", cfg.bin, "-bench-dir", cfg.benchDir, "-work-dir", cfg.workDir,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	// Should this process die, the run ends too, and takes its server along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	raw, err := cmd.Output()
	report := string(raw)
	var exitErr *exec.ExitError
	if err != nil && !(errors.As(err, &exitErr) && exitErr.ExitCode() == 1) { // 1: ran, answers wrong
		return nil, report, err
	}
	lines := strings.Split(strings.TrimSpace(report), "\n")
	out := &outcome{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return nil, report, fmt.Errorf("no result line: %w", err)
	}
	return out, report, nil
}

// gitCommit names the checked-out commit, when there is a repository and
// a git to ask.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// filesystemOf names the filesystem holding dir: fsync cost, and with it
// every write-path number, belongs to the device as much as to the code.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("type 0x%x", st.Type)
}
