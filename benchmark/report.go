package main

import (
	"fmt"
	"strings"
)

// metricDef declares one metric the way BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// endToEnd are the gated metrics, emitted by every workload's untraced
// run. Bounds are shares of the parent commit's median.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "serial_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "open_slo_ok_frac", Unit: "frac", Better: "higher", Bound: 0.05},
}

// Generator validity guards: past these the open phase measured the
// generator, not the server.
const (
	maxGeneratorCPUFrac = 0.7
	maxLateMicros       = 2000
)

// lateGuard picks the lateness the guard judges: p99, or on a phase too
// short to have ten samples beyond p99 the highest percentile that has,
// or the median when even p90 has not.
func lateGuard(late sample) (p, value float64) {
	sorted := late.sorted()
	p, value, ok := tail(sorted)
	switch {
	case !ok:
		return 50, percentile(sorted, 50)
	case p > 99:
		return 99, percentile(sorted, 99)
	}
	return p, value
}

// e2eOutcome runs a workload untraced and turns it into the outcome.
func e2eOutcome(cfg *runConfig, w *workload) (*outcome, error) {
	run, err := runE2E(cfg, w)
	if err != nil {
		return nil, err
	}
	return run.outcome(cfg), nil
}

func (run *e2eRun) outcome(cfg *runConfig) *outcome {
	o := &outcome{Correct: true}
	w, ser, open := run.w, run.serial, run.open

	o.set("setup_s", atNominal(run.setups.median(), run.setupYard), "s")
	o.set("serial_ops_s", 1e6/ser.atNominal(1e6/ser.opsPerSecond()), "1/s")
	o.set("server_cpu_us_per_op", ser.atNominal(ser.childCPUMicrosPerOp()), "us")
	o.set("open_slo_ok_frac", open.sloOKFraction(), "frac")

	o.notef("workload %s  seed %d  seconds %d  (data dirs under %s; runs on another filesystem are not comparable)",
		w.name, cfg.seed, cfg.seconds, run.dataRoot)
	o.notef("  set-up      %d× median %.3fs as measured (exec→banner median %.3fs); yardstick %.2fus (best quartile of %d readings)",
		len(run.setups), run.setups.median(), run.ready.median(), run.setupYard, run.setupYardReadings)
	o.notef("  serial      %d ops in %.2fs on 1 connection: %.1f ops/s, server cpu %.1fus/op, generator cpu %.0f%% of wall",
		ser.attempt, ser.wall.Seconds(), float64(ser.attempt)/ser.wall.Seconds(),
		ser.childCPU*1e6/float64(ser.attempt), 100*ser.selfCPU/ser.wall.Seconds())
	switch {
	case ser.repeating:
		o.notef("              %d laps of the same %d requests: each request counts as the best quartile of its repetitions",
			len(ser.laps), ser.laps[0].ops)
	case len(ser.laps) > 1:
		o.notef("              %d laps of like work: the metrics are the laps' best quartile", len(ser.laps))
	}
	o.notef("              best quartile, as measured: %.1f ops/s, rtt p50 %.1fus, server cpu %.1fus/op",
		ser.opsPerSecond(), ser.p50(), ser.childCPUMicrosPerOp())
	o.notef("              yardstick %.2fus (best quartile of %d readings): the metrics are those numbers at %.0fus",
		ser.yard, ser.yardReadings, yardNominal)
	o.notef("              rtt %s  failed %d/%d", ser.all.summary("us"), ser.failed, ser.attempt)
	reportKinds(o, ser)
	lateP, lateV := lateGuard(open.late)
	genFrac := open.selfCPU / open.wall.Seconds()
	o.notef("  open        %d ops at %.0f/s on %d connections in %.2fs: within %s and correct %d/%d, failed %d",
		open.attempt, w.openRate, openConnections, open.wall.Seconds(), w.limit, open.withinOK, open.attempt, open.failed)
	var shares []string
	for _, win := range open.windows {
		shares = append(shares, fmt.Sprintf("%d/%d", win.withinOK, win.attempt))
	}
	o.notef("              by window %s: the metric is the mean share of the best %d",
		strings.Join(shares, " "), openWindowsKept)
	o.notef("              latency from due time %s", open.all.summary("us"))
	reportKinds(o, open)
	o.notef("              generator: late %s, cpu %.0f%% of wall; server cpu %.0f%% of wall",
		open.late.summary("us"), 100*genFrac, 100*open.childCPU/open.wall.Seconds())
	if genFrac > maxGeneratorCPUFrac || lateV > maxLateMicros {
		o.notef("  INVALID     the open phase measured the generator (cpu %.2f of wall, p%g lateness %.0fus): do not read it as a slow server",
			genFrac, lateP, lateV)
	}
	if sc := run.scraped; sc != nil {
		hits, misses := sc[`anonymizer_reduce_cache_hits_total{tier="region"}`], sc[`anonymizer_reduce_cache_misses_total{tier="region"}`]
		if hits+misses > 0 {
			o.notef("  server      reduce cache: hit ratio %.3f over the whole run, %.0f bytes held, %.0f evictions",
				hits/(hits+misses), sc["anonymizer_reduce_cache_bytes"], sc["anonymizer_reduce_cache_evictions_total"])
		}
		if recs := sc["anonymizer_wal_records_total"]; recs > 0 {
			o.notef("  server      journal: %.0f records, %.0f fsyncs, %.0f snapshots",
				recs, sc["anonymizer_wal_fsyncs_total"], sc["anonymizer_snapshots_total"])
		}
	}
	if run.answers > 0 {
		o.notef("  answers     %d distinct (region, level) reductions, digest %016x", run.answers, run.digest)
	}
	if d := run.drill; d != nil {
		o.notef("  crash drill kill -9, restart in %.3fs, %d live registrations reduced to their user's segment, %d failed",
			run.restart.Seconds(), d.attempt-d.failed, d.failed)
	}
	for _, st := range []*phaseStats{ser, open, run.drill} {
		if st != nil {
			o.count(st)
		}
	}
	var names []string
	for _, m := range endToEnd {
		v := o.Metrics[m.Name]
		names = append(names, fmt.Sprintf("%s=%.4g %s", m.Name, v.Value, v.Unit))
	}
	o.notef("  metrics     %s", strings.Join(names, "  "))
	return o
}

// reportKinds prints per-op latency lines when a phase mixed several ops.
func reportKinds(o *outcome, st *phaseStats) {
	kinds := 0
	for _, s := range st.byKind {
		if len(s) > 0 {
			kinds++
		}
	}
	if kinds < 2 {
		return
	}
	for k, s := range st.byKind {
		if len(s) > 0 {
			o.notef("                %-12s %s", opKind(k), s.summary("us"))
		}
	}
}
