package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// promSnapshot is one scrape of a Prometheus text exposition, keyed by
// the series exactly as exposed: `name` or `name{label="v",…}`.
type promSnapshot map[string]float64

// parseProm reads the text exposition format: comment and blank lines are
// skipped, every other line is `series value` (an optional timestamp after
// the value is ignored). A line that does not parse is an error — a
// half-understood scrape must not silently turn into zeros.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series may contain spaces inside label values; the value
		// starts after the closing brace, or after the first space.
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
			if cut < 0 {
				return nil, fmt.Errorf("metrics line without a value: %q", line)
			}
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[line[:cut]] = v
	}
	return snap, sc.Err()
}

// scrapeMetrics fetches and parses http://addr/metrics.
func scrapeMetrics(addr string) (promSnapshot, error) {
	hc := http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// delta returns after[series] - before[series]. ok is false when the
// series is missing from the later scrape: the caller reports the metric
// as absent instead of inventing a zero. A series missing only from the
// earlier scrape started at zero (the server omits untouched histograms).
func delta(before, after promSnapshot, series string) (float64, bool) {
	a, ok := after[series]
	if !ok {
		return 0, false
	}
	return a - before[series], true
}

// ratio divides two optional values; absent or zero denominators yield an
// absent result.
func ratio(num float64, numOK bool, den float64, denOK bool) (float64, bool) {
	if !numOK || !denOK || den == 0 {
		return 0, false
	}
	return num / den, true
}

// clockTicksPerSecond is USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. Linux has fixed it at 100 on every architecture Go
// supports.
const clockTicksPerSecond = 100

// procStat holds the fields of /proc/<pid>/stat this benchmark uses.
type procStat struct {
	utimeTicks, stimeTicks int64
}

// cpuSeconds is user+system CPU time.
func (p procStat) cpuSeconds() float64 {
	return float64(p.utimeTicks+p.stimeTicks) / clockTicksPerSecond
}

// parseProcStat parses one /proc/<pid>/stat line. The second field, the
// command name, is parenthesised and may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command field in %q", line)
	}
	// rest[0] is field 3 (state); utime and stime are fields 14 and 15.
	rest := strings.Fields(line[end+1:])
	if len(rest) < 13 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command, need 13", len(rest))
	}
	ut, err := strconv.ParseInt(rest[11], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(rest[12], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("proc stat: stime: %w", err)
	}
	return procStat{utimeTicks: ut, stimeTicks: st}, nil
}

// readProcStat reads /proc/<pid>/stat.
func readProcStat(pid int) (procStat, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(raw))
}

// taskCPUSeconds sums the on-CPU time of every thread of a process from
// /proc/<pid>/task/*/schedstat, whose first field counts nanoseconds:
// /proc/<pid>/stat counts 10ms ticks, too coarse for a one-second block.
// ok is false where the kernel keeps no schedstats.
func taskCPUSeconds(pid int) (seconds float64, ok bool) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, false
	}
	var ns int64
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		fields := strings.Fields(string(raw))
		if len(fields) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, false
		}
		ns += v
	}
	return float64(ns) / 1e9, true
}

// cpuSeconds is a process's user+system CPU time so far; pid 0 means this
// process.
func cpuSeconds(pid int) (float64, error) {
	if pid == 0 {
		pid = os.Getpid()
	}
	if s, ok := taskCPUSeconds(pid); ok {
		return s, nil
	}
	st, err := readProcStat(pid)
	if err != nil {
		return 0, err
	}
	return st.cpuSeconds(), nil
}

// parseStatusKB extracts a "Key:   123 kB" value from /proc/<pid>/status
// text. ok is false when the key is absent.
func parseStatusKB(status, key string) (kb int64, ok bool) {
	for _, line := range strings.Split(status, "\n") {
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, bool) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	kb, ok := parseStatusKB(string(raw), "VmHWM")
	return float64(kb) / 1024, ok
}
