package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// The same seed must give the same inputs, and another seed other inputs.
func TestGeneratorsAreSeeded(t *testing.T) {
	counts := []int{0, 3, 0, 1, 5, 0, 2}
	d := newDensitySampler(counts)
	draw := func(seed int64) ([]roadnet.SegmentID, []opKind, []time.Duration, []int) {
		users := d.drawN(newRand(seed, streamUsers), 64)
		mixRand := newRand(seed, streamMix)
		mix := make([]opKind, 64)
		for i := range mix {
			mix[i] = drawOp(mixRand, mixedMix)
		}
		sched := poissonSchedule(newRand(seed, streamArrivals), 1500, 64)
		ranks := make([]int, 64)
		rs := newRankSampler(newRand(seed, streamTargets), 1.5, 128)
		for i := range ranks {
			ranks[i] = rs.draw()
		}
		return users, mix, sched, ranks
	}
	u1, m1, s1, r1 := draw(7)
	u2, m2, s2, r2 := draw(7)
	if !reflect.DeepEqual(u1, u2) || !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("the same seed generated different inputs")
	}
	u3, m3, s3, r3 := draw(8)
	if reflect.DeepEqual(u1, u3) || reflect.DeepEqual(m1, m3) || reflect.DeepEqual(s1, s3) || reflect.DeepEqual(r1, r3) {
		t.Fatal("another seed generated the same inputs")
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, n = 2000.0, 20000
	sched := poissonSchedule(newRand(1, streamArrivals), rate, n)
	minGap := time.Duration(float64(time.Second) / rate / 10)
	for i := 1; i < n; i++ {
		if gap := sched[i] - sched[i-1]; gap < minGap {
			t.Fatalf("gap %d is %v, below the floor %v", i, gap, minGap)
		}
	}
	// Flooring gaps at a tenth of the mean stretches the schedule by
	// about half a percent; the rate must still be the rate.
	got := float64(n) / sched[n-1].Seconds()
	if got < 0.97*rate || got > 1.01*rate {
		t.Fatalf("schedule runs at %.0f/s, want about %.0f/s", got, rate)
	}
}

// The density-weighted sampler draws a segment as often as it has cars,
// and never draws an empty road.
func TestDensitySamplerMatchesCounts(t *testing.T) {
	w, err := findWorkload("mixed_dense")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := buildWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := wd.sampler.total(); got != w.cars {
		t.Fatalf("sampler covers %d cars, the simulation has %d", got, w.cars)
	}
	const draws = 400000
	seen := make([]int, wd.g.NumSegments())
	r := newRand(1, streamUsers)
	for i := 0; i < draws; i++ {
		seen[wd.sampler.draw(r)]++
	}
	for seg, n := range seen {
		users := wd.sim.UsersOn(roadnet.SegmentID(seg))
		if users == 0 {
			if n != 0 {
				t.Fatalf("segment %d has no cars but was drawn %d times", seg, n)
			}
			continue
		}
		want := float64(draws) * float64(users) / float64(w.cars)
		// Five standard deviations of a binomial count.
		if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
			t.Errorf("segment %d with %d cars drawn %d times, want about %.0f", seg, users, n, want)
		}
	}
}

func TestMixedMixProportions(t *testing.T) {
	const n = 80000
	got := map[opKind]int{}
	r := newRand(3, streamMix)
	for i := 0; i < n; i++ {
		got[drawOp(r, mixedMix)]++
	}
	for _, m := range mixedMix {
		want := float64(n) * float64(m.weight) / 80
		if math.Abs(float64(got[m.kind])-want) > 5*math.Sqrt(want) {
			t.Errorf("%s drawn %d times, want about %.0f", m.kind, got[m.kind], want)
		}
	}
}

func TestPercentileAndTail(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1) // 1..1000, so the p-th percentile is 10p
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %g, want %g", c.p, got, c.want)
		}
	}
	// The reported tail is the highest percentile with at least ten
	// samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		some bool
	}{
		{48, 0, false},      // p90 has 4 beyond
		{100, 90, true},     // p90 has 10 beyond, p95 has 5
		{540, 95, true},     // p95 has 27 beyond, p99 has 5
		{1000, 99, true},    // p99 has 10 beyond, p99.9 has 1
		{12000, 99.9, true}, // p99.9 has 12 beyond, p99.99 has 1
		{120000, 99.99, true},
	} {
		asc := make([]float64, c.n)
		for i := range asc {
			asc[i] = float64(i + 1)
		}
		p, val, ok := tail(asc)
		if ok != c.some || p != c.p {
			t.Errorf("tail of %d samples = p%g (ok=%v), want p%g (ok=%v)", c.n, p, ok, c.p, c.some)
		}
		if ok && val <= 0 {
			t.Errorf("tail of %d samples has value %g", c.n, val)
		}
	}
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Errorf("median of 3,1,2 = %g", got)
	}
	if got := (sample{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", got)
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4), which
// is what the driver computes: for 1..10 the quartiles are 2.75 and 8.25.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := v.spread(), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
	// Two values: quantiles extrapolate to 0.75 and 2.25 for [1, 2].
	if got, want := (sample{1, 2}).spread(), (2.0-1.0)/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1,2 = %g, want %g", got, want)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	line := "4242 (anonymizer (v2) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 52 0 0 20 0 9 0 1000 2000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.utimeTicks != 731 || st.stimeTicks != 52 {
		t.Fatalf("utime, stime = %d, %d, want 731, 52", st.utimeTicks, st.stimeTicks)
	}
	if got := st.cpuSeconds(); got != 7.83 {
		t.Fatalf("cpu seconds = %g, want 7.83", got)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S 1 2 3"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	if _, err := readProcStat(os.Getpid()); err != nil {
		t.Errorf("reading this process's stat: %v", err)
	}
	if kb, ok := parseStatusKB("Name:\tx\nVmHWM:\t   25748 kB\nVmRSS:\t 100 kB\n", "VmHWM"); !ok || kb != 25748 {
		t.Errorf("VmHWM = %d (ok=%v), want 25748", kb, ok)
	}
	if _, ok := parseStatusKB("Name:\tx\n", "VmHWM"); ok {
		t.Error("a missing status key was found")
	}
}

func TestParsePromAndMissingSeries(t *testing.T) {
	text := `# HELP anonymizer_connections_open Currently open client connections.
# TYPE anonymizer_connections_open gauge
anonymizer_connections_open 2
anonymizer_op_duration_seconds_sum{op="reduce"} 1.5e-05
anonymizer_op_duration_seconds_bucket{op="reduce",le="+Inf"} 7
anonymizer_tenant_ops_total{tenant="a b} c"} 12 1700000000000

anonymizer_reduce_cache_hits_total{tier="region"} 90
`
	before, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"anonymizer_connections_open":                                  2,
		`anonymizer_op_duration_seconds_sum{op="reduce"}`:              1.5e-05,
		`anonymizer_op_duration_seconds_bucket{op="reduce",le="+Inf"}`: 7,
		`anonymizer_tenant_ops_total{tenant="a b} c"}`:                 12,
	} {
		if got, ok := before[series]; !ok || got != want {
			t.Errorf("%s = %g (present=%v), want %g", series, got, ok, want)
		}
	}
	after, err := parseProm(strings.NewReader(`anonymizer_reduce_cache_hits_total{tier="region"} 190
anonymizer_wal_records_total 40
`))
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := delta(before, after, `anonymizer_reduce_cache_hits_total{tier="region"}`); !ok || d != 100 {
		t.Errorf("hits delta = %g (ok=%v), want 100", d, ok)
	}
	// Absent before: the counter started at zero.
	if d, ok := delta(before, after, "anonymizer_wal_records_total"); !ok || d != 40 {
		t.Errorf("records delta = %g (ok=%v), want 40", d, ok)
	}
	// Absent after: the metric is absent, not zero.
	if _, ok := delta(before, after, "anonymizer_reduce_cache_evictions_total"); ok {
		t.Error("a series missing from the scrape produced a value")
	}
	if _, ok := ratio(1, true, 0, true); ok {
		t.Error("a zero denominator produced a ratio")
	}
	if _, ok := ratio(1, false, 2, true); ok {
		t.Error("an absent numerator produced a ratio")
	}
	for _, bad := range []string{"metric_without_value", "metric not-a-number"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	endRoot := tr.begin("server.reduce")
	endDo := tr.span("regcache.DoRegion")
	endPeel := tr.span("cloak.Deanonymize")
	endPeel()
	endDo()
	endLookup := tr.span("store.Lookup")
	endLookup()
	endRoot()
	// Replace the clock readings with known ones.
	set := func(i int, start, end int64) { tr.spans[i].StartNS, tr.spans[i].EndNS = start, end }
	set(0, 0, 1000)  // server.reduce
	set(1, 100, 800) // regcache.DoRegion
	set(2, 200, 700) // cloak.Deanonymize
	set(3, 850, 950) // store.Lookup
	if tr.spans[1].Parent != tr.spans[0].SpanID || tr.spans[2].Parent != tr.spans[1].SpanID || tr.spans[3].Parent != tr.spans[0].SpanID {
		t.Fatalf("wrong parents: %+v", tr.spans)
	}
	got := selfTimes(tr.spans)
	want := map[string]time.Duration{"server": 200, "regcache": 200, "cloak": 500, "store": 100}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	// A nil tracer is the untraced replay: same calls, nothing kept.
	var off *tracer
	off.begin("server.reduce")()
	off.span("store.Lookup")()
}

// BENCHMARK.json is generated from this package's tables and must not
// drift from them; it must also stay inside the driver's format limits.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	want, err := describeJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("../BENCHMARK.json differs from `benchmark -describe`; regenerate it")
	}
	var f benchmarkFile
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range f.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range f.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}

func TestScaledCounts(t *testing.T) {
	w, err := findWorkload("reduce_cold")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.scaled(runSeconds); got.serialN() != w.serialN() || got.openN != w.openN {
		t.Errorf("scaling to run_seconds changed the counts: %d, %d", got.serialN(), got.openN)
	}
	if got := w.scaled(2 * runSeconds); got.laps != 2*w.laps || got.lapSlots != w.lapSlots {
		t.Errorf("doubling the seconds gave %d laps of %d, want %d of %d", got.laps, got.lapSlots, 2*w.laps, w.lapSlots)
	}
	if got := w.scaled(1); got.laps < 4 || got.traceN > got.serialN() {
		t.Errorf("one second gave %d laps and %d traced requests", got.laps, got.traceN)
	}
	one, err := findWorkload("register_paper")
	if err != nil {
		t.Fatal(err)
	}
	if got := one.scaled(2 * runSeconds); got.laps != 1 || got.lapSlots != 2*one.lapSlots {
		t.Errorf("doubling the seconds of a one-lap phase gave %d laps of %d", got.laps, got.lapSlots)
	}
}

// A stall spoils the requests it hits, not the laps they are in: with a
// different position slowed in every lap, every position still has enough
// undisturbed repetitions.
func TestRepeatingLapsDodgeStalls(t *testing.T) {
	const laps, n = 8, 5
	st := &phaseStats{repeating: true}
	for lap := 0; lap < laps; lap++ {
		st.laps = append(st.laps, lapStats{first: lap * n, ops: n, childCPU: 1e-6 * n * 50})
		for i := 0; i < n; i++ {
			v := float64(100 * (i + 1))
			if i == lap%n {
				v *= 10 // the stall
			}
			st.all = append(st.all, v)
			st.period = append(st.period, v+10)
		}
	}
	if got, want := st.opsPerSecond(), 1e6/310; math.Abs(got-want) > 1e-9 {
		t.Errorf("ops/s %g, want %g", got, want)
	}
	if got := st.p50(); got != 300 {
		t.Errorf("p50 %g, want 300", got)
	}
	if got := st.childCPUMicrosPerOp(); math.Abs(got-50) > 1e-9 {
		t.Errorf("cpu per op %g, want 50", got)
	}
	st.yard = 2 * yardNominal // a machine at half speed
	if got := st.atNominal(300); got != 150 {
		t.Errorf("300us at twice the nominal yardstick is %gus at nominal, want 150", got)
	}
}

func TestOpenWindowsDropTheWorstQuarter(t *testing.T) {
	st := &phaseStats{}
	for i := range st.windows {
		st.windows[i].attempt, st.windows[i].withinOK = 100, 100
	}
	st.windows[3].withinOK, st.windows[4].withinOK = 0, 20 // a stall across two windows
	if got := st.sloOKFraction(); got != 1 {
		t.Errorf("two spoilt windows of %d gave %g, want 1", openWindows, got)
	}
	for i := range st.windows {
		st.windows[i].withinOK = 90 // a server that is late everywhere
	}
	if got := st.sloOKFraction(); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("late in every window gave %g, want 0.9", got)
	}
}

func TestReduceListsRepeat(t *testing.T) {
	for _, name := range []string{"reduce_cold", "reduce_hot"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		src := &reduceSource{w: w, seed: 3}
		for i := 0; i < w.pool; i++ {
			src.pool = append(src.pool, &region{id: fmt.Sprint("r", i+1)})
		}
		src.order = newRand(3, streamTargets).Perm(w.pool)
		src.beginPhase(phaseSerial)
		var first []request
		for i := 0; i < w.lapSlots; i++ {
			first = append(first, *src.next(time.Time{}))
		}
		for i := 0; i < w.lapSlots; i++ {
			if got := *src.next(time.Time{}); got != first[i] {
				t.Fatalf("%s: lap 2 slot %d asks %v, lap 1 asked %v", name, i, got, first[i])
			}
		}
	}
}
