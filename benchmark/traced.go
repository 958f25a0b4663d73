package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
)

// perLayer are the metrics of the traced run, `<layer>.<name>`, emitted by
// every workload. A metric whose source is absent on a workload (a series
// the server does not expose without a cache, an RTT of an op the server
// refuses without tenants) reads 0 and is named in the report.
var perLayer = []metricDef{
	{Name: "mapgen.build_ms", Unit: "ms", Better: "lower"},
	{Name: "mapgen.sim_build_ms", Unit: "ms", Better: "lower"},
	{Name: "cloak.engine_build_ms.rge", Unit: "ms", Better: "lower"},
	{Name: "cloak.engine_build_ms.rple", Unit: "ms", Better: "lower"},
	{Name: "cloak.anonymize_us.rge", Unit: "us", Better: "lower"},
	{Name: "cloak.anonymize_p50_us.rge", Unit: "us", Better: "lower"},
	{Name: "cloak.anonymize_us.rge.l1", Unit: "us", Better: "lower"},
	{Name: "cloak.anonymize_us.rge.l2", Unit: "us", Better: "lower"},
	{Name: "cloak.anonymize_us.rge.l3", Unit: "us", Better: "lower"},
	{Name: "cloak.anonymize_allocs.rge", Unit: "count", Better: "lower"},
	{Name: "cloak.anonymize_bytes.rge", Unit: "B", Better: "lower"},
	{Name: "cloak.steps_per_op", Unit: "count", Better: "lower"},
	{Name: "cloak.salt_retries_per_op", Unit: "count", Better: "lower"},
	{Name: "cloak.tagged_levels_frac", Unit: "frac", Better: "lower"},
	{Name: "cloak.anonymize_us.rple", Unit: "us", Better: "lower"},
	{Name: "cloak.refused_frac.rple", Unit: "frac", Better: "lower"},
	{Name: "cloak.deanonymize_us.rge", Unit: "us", Better: "lower"},
	{Name: "cloak.deanonymize_us_per_level.rge", Unit: "us", Better: "lower"},
	{Name: "cloak.deanonymize_allocs.rge", Unit: "count", Better: "lower"},
	{Name: "cloak.deanonymize_us.rple", Unit: "us", Better: "lower"},
	{Name: "keys.derive_set_us", Unit: "us", Better: "lower"},
	{Name: "keys.derive_set_allocs", Unit: "count", Better: "lower"},
	{Name: "regcache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "regcache.do_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "regcache.invalidate_ns", Unit: "ns", Better: "lower"},
	{Name: "regcache.hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "regcache.evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "regcache.singleflight_waits", Unit: "count", Better: "lower"},
	{Name: "regcache.bytes", Unit: "B", Better: "lower"},
	{Name: "store.register_us", Unit: "us", Better: "lower"},
	{Name: "store.register_allocs", Unit: "count", Better: "lower"},
	{Name: "store.deregister_us", Unit: "us", Better: "lower"},
	{Name: "store.touch_us", Unit: "us", Better: "lower"},
	{Name: "store.set_trust_us", Unit: "us", Better: "lower"},
	{Name: "store.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "store.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "store.sweep_us_per_expired", Unit: "us", Better: "lower"},
	{Name: "store.recover_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "store.register_sync_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_records_per_op", Unit: "count", Better: "lower"},
	{Name: "store.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "store.group_commit_waits_per_round", Unit: "count", Better: "higher"},
	{Name: "store.dir_bytes_per_reg", Unit: "B", Better: "lower"},
	{Name: "store.snapshots", Unit: "count", Better: "lower"},
	{Name: "store.restart_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "server.serial_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.ping_rtt_us.json", Unit: "us", Better: "lower"},
	{Name: "server.pipelined_ping_us", Unit: "us", Better: "lower"},
	{Name: "server.get_region_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.conn_setup_us", Unit: "us", Better: "lower"},
	{Name: "server.req_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.dispatch_us.anonymize", Unit: "us", Better: "lower"},
	{Name: "server.dispatch_us.reduce", Unit: "us", Better: "lower"},
	{Name: "server.residual_us", Unit: "us", Better: "lower"},
	{Name: "server.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "tenant.auth_rtt_us", Unit: "us", Better: "lower"},
	{Name: "tenant.throttled", Unit: "count", Better: "lower"},
	{Name: "loadgen.max_late_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "share.cloak", Unit: "frac", Better: "lower"},
	{Name: "share.keys", Unit: "frac", Better: "lower"},
	{Name: "share.regcache", Unit: "frac", Better: "lower"},
	{Name: "share.store", Unit: "frac", Better: "lower"},
	{Name: "share.server", Unit: "frac", Better: "lower"},
	{Name: "trace.replay_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

// shareLayers are the layers a request's round trip is divided among;
// "server" is what remains of the child's measured round trip after the
// in-process layers.
var shareLayers = []string{"cloak", "keys", "regcache", "store"}

// tracedOutcome is the per-layer run of one workload: a short serial
// phase against a real server for round trips and scraped counters, an
// in-process replay of the same requests with a span around every call
// into a layer, and in-process measurements of each layer alone.
func tracedOutcome(cfg *runConfig, base *workload) (*outcome, error) {
	w := base.scaled(cfg.seconds)
	o := &outcome{Correct: true}
	o.notef("workload %s  seed %d  traced run: %d serial requests", w.name, cfg.seed, w.traceN)

	t0 := time.Now()
	wd, err := buildWorld(&w)
	if err != nil {
		return nil, err
	}
	o.set("mapgen.build_ms", micros(wd.mapBuild)/1e3, "ms")
	o.set("mapgen.sim_build_ms", micros(wd.simBuild)/1e3, "ms")

	// Build the engines while the child builds its own: RPLE's tables
	// take as long in here as they do in there.
	var (
		engines  map[cloak.Algorithm]*cloak.Engine
		took     map[cloak.Algorithm]time.Duration
		buildErr error
		building sync.WaitGroup
	)
	building.Add(1)
	go func() {
		defer building.Done()
		engines, took, buildErr = wd.engines(true)
	}()
	su, err := setUp(cfg, &w, wd, true)
	building.Wait()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s, src := su.s, su.src
	defer s.discard()
	if buildErr != nil {
		return nil, buildErr
	}
	o.set("cloak.engine_build_ms.rge", micros(took[cloak.RGE])/1e3, "ms")
	o.set("cloak.engine_build_ms.rple", micros(took[cloak.RPLE])/1e3, "ms")
	o.notef("  set-up      server %.2fs, harness world+engines %.2fs (in parallel)", su.took.Seconds(), time.Since(t0).Seconds())

	// The child's side: a short serial phase between two scrapes, the
	// bare round trips, and a short open phase for the generator's guards.
	before, err := scrapeMetrics(s.child.admin)
	if err != nil {
		return nil, err
	}
	src.beginPhase(phaseSerial)
	ser, err := runSerial(s, src, serialPlan{laps: 1, lapSlots: w.traceN, keepLog: true})
	if err != nil {
		return nil, err
	}
	after, err := scrapeMetrics(s.child.admin)
	if err != nil {
		return nil, err
	}
	o.count(ser)
	ops, rttMean := float64(ser.attempt), ser.all.mean()
	o.set("server.serial_rtt_us", rttMean, "us")
	scrapedMetrics(o, before, after, ser, s.dataDir)
	if err := measureWire(o, s, ser.log); err != nil {
		return nil, err
	}
	src.beginPhase(phaseOpen)
	open, err := runOpen(s, src, w.schedule(cfg.seed, w.openN/4))
	if err != nil {
		return nil, err
	}
	o.count(open)
	o.set("loadgen.max_late_us", percentile(open.late.sorted(), 100), "us")
	o.set("loadgen.cpu_frac", open.selfCPU/open.wall.Seconds(), "frac")
	rss, ok := peakRSSMB(s.child.pid())
	o.setOptional("server.rss_peak_mb", rss, ok, "MB")

	// Crash the child and time the store's part of coming back.
	s.close(true)
	kr, err := keys.LoadKeyring(filepath.Join(cfg.benchDir, "master-key.json"))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	recovered, err := openStore(&w, kr, s.dataDir, w.fsync)
	if err != nil {
		return nil, fmt.Errorf("reopening the crashed server's store: %w", err)
	}
	o.set("store.restart_ready_ms", micros(time.Since(t0))/1e3, "ms")
	_ = recovered.Close()

	// The harness's side: replay set-up, warm-up and the serial phase
	// in-process on fresh state, once recording spans and once not.
	tr := newTracer()
	tracePath := filepath.Join(cfg.benchDir, "out", "trace-"+w.name+".json")
	var replays [2]*replayStats
	for i, t := range []*tracer{tr, nil} {
		if replays[i], err = replayOnce(cfg, &w, engines, t, su.log, ser.log); err != nil {
			o.Correct = false
			o.Failed++
			o.notef("  ! replay: %v", err)
			replays = [2]*replayStats{{}, {}}
			break
		}
	}
	traced, untraced := replays[0], replays[1]
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	rest := 1.0
	for _, layer := range shareLayers {
		share := micros(self[layer]) / (rttMean * ops)
		o.set("share."+layer, share, "frac")
		rest -= share
	}
	o.set("share.server", rest, "frac")
	o.set("trace.replay_us_per_op", micros(untraced.wall)/ops, "us")
	overhead := 0.0
	if untraced.wall > 0 {
		overhead = float64(traced.wall-untraced.wall) / float64(untraced.wall)
	}
	o.set("trace.overhead_frac", overhead, "frac")

	// Each layer alone.
	regions, err := measureCloak(o, &w, wd, engines, kr)
	if err != nil {
		return nil, err
	}
	if err := measureKeys(o, &w, kr); err != nil {
		return nil, err
	}
	measureRegcache(o, regions)
	if err := measureStore(o, cfg, &w, kr, regions[0]); err != nil {
		return nil, err
	}

	// The report.
	o.notef("  serial      %d ops, mean rtt %.1fus (%s), server cpu %.1fus/op",
		ser.attempt, rttMean, ser.all.summary("us"), ser.childCPU*1e6/ops)
	o.notef("  replay      %d spans in %s; %.1fus/op untraced, %.1fus/op traced; every answer equal to the server's: %v",
		len(tr.spans), tracePath, micros(untraced.wall)/ops, micros(traced.wall)/ops, o.Correct)
	for k := opKind(0); k < numOpKinds; k++ {
		if untraced.count[k] == 0 {
			continue
		}
		replayed := micros(untraced.byKind[k]) / float64(untraced.count[k])
		line := fmt.Sprintf("                %-12s replay %.1fus/op  child rtt %.1fus", k, replayed, ser.byKind[k].mean())
		if d := o.Metrics["server.dispatch_us."+k.String()]; d.Value > 0 {
			line += fmt.Sprintf("  server dispatch %.1fus (replay/dispatch %.2f)", d.Value, replayed/d.Value)
		}
		o.notef("%s", line)
	}
	if len(o.absent) > 0 {
		sort.Strings(o.absent)
		o.notef("  absent      reported as 0: %s", strings.Join(o.absent, " "))
	}
	for _, m := range perLayer {
		v, ok := o.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", m.Name)
		}
		o.notef("  %-38s %14.4f %s", m.Name, v.Value, v.Unit)
	}
	return o, nil
}

// scrapedMetrics turns two /metrics scrapes around a serial phase into the
// per-layer metrics only the server can count.
func scrapedMetrics(o *outcome, before, after promSnapshot, ser *phaseStats, dataDir string) {
	ops := float64(ser.attempt)
	change := func(series string) (float64, bool) { return delta(before, after, series) }
	perOp := func(name, series, unit string) {
		d, ok := change(series)
		o.setOptional(name, d/ops, ok, unit)
	}
	var dispatched float64
	for _, op := range opNames {
		d, _ := change(fmt.Sprintf(`anonymizer_op_duration_seconds_sum{op=%q}`, op))
		dispatched += d
	}
	o.set("server.residual_us", ser.all.mean()-dispatched*1e6/ops, "us")
	for _, op := range []string{"anonymize", "reduce"} {
		sum, ok1 := change(fmt.Sprintf(`anonymizer_op_duration_seconds_sum{op=%q}`, op))
		cnt, ok2 := change(fmt.Sprintf(`anonymizer_op_duration_seconds_count{op=%q}`, op))
		v, ok := ratio(sum*1e6, ok1, cnt, ok2)
		o.setOptional("server.dispatch_us."+op, v, ok, "us")
	}
	perOp("server.req_bytes_per_op", "anonymizer_request_bytes_total", "B")

	hits, ok1 := change(`anonymizer_reduce_cache_hits_total{tier="region"}`)
	misses, ok2 := change(`anonymizer_reduce_cache_misses_total{tier="region"}`)
	v, ok := ratio(hits, ok1, hits+misses, ok2)
	o.setOptional("regcache.hit_ratio", v, ok, "frac")
	evictions, ok := change("anonymizer_reduce_cache_evictions_total")
	o.setOptional("regcache.evictions_per_kop", 1000*evictions/ops, ok, "count")
	waits, ok := change("anonymizer_reduce_cache_singleflight_waits_total")
	o.setOptional("regcache.singleflight_waits", waits, ok, "count")
	held, ok := after["anonymizer_reduce_cache_bytes"]
	o.setOptional("regcache.bytes", held, ok, "B")

	perOp("store.wal_records_per_op", "anonymizer_wal_records_total", "count")
	perOp("store.fsyncs_per_op", "anonymizer_wal_fsyncs_total", "count")
	waited, ok1 := change("anonymizer_wal_group_commit_waits_total")
	rounds, ok2 := change("anonymizer_wal_group_commit_rounds_total")
	v, ok = ratio(waited, ok1, rounds, ok2)
	o.setOptional("store.group_commit_waits_per_round", v, ok, "count")
	snapshots, ok := change("anonymizer_snapshots_total")
	o.setOptional("store.snapshots", snapshots, ok, "count")
	live, ok1 := after["anonymizer_registrations"]
	size, err := dirBytes(dataDir)
	v, ok = ratio(float64(size), err == nil, live, ok1)
	o.setOptional("store.dir_bytes_per_reg", v, ok, "B")

	throttled, ok := change("anonymizer_throttled_total")
	o.setOptional("tenant.throttled", throttled, ok, "count")
}

// replayOnce replays the set-up log untimed and the serial log timed, on
// fresh in-process state. tr records the serial log's spans; nil replays
// without recording.
func replayOnce(cfg *runConfig, w *workload, engines map[cloak.Algorithm]*cloak.Engine,
	tr *tracer, setupLog, serialLog []opRecord) (*replayStats, error) {
	rp, err := newReplayer(cfg, w, engines)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	if _, err := rp.run(setupLog); err != nil {
		return nil, err
	}
	rp.tr = tr
	return rp.run(serialLog)
}

// measureWire times the round trips that involve no layer but the server
// itself: pings under both codecs, pipelined pings, a stored-region fetch,
// connection set-up and, where the server has tenants, authentication.
func measureWire(o *outcome, s *server, log []opRecord) error {
	const n = 2000
	c := s.conns[0]
	var failure error
	keep := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}
	// The last region the serial phase registered or reduced is alive,
	// and on a server with leases it is the one with the longest to live.
	id := ""
	for i := len(log) - 1; i >= 0 && id == ""; i-- {
		switch {
		case log[i].res.id != "":
			id = log[i].res.id
		case log[i].req.kind == opReduce:
			id = log[i].req.target.id
		}
	}
	ns, _, _ := timed(n, func(int) { _, _, err := c.GetRegion(id); keep(err) })
	o.set("server.get_region_rtt_us", ns.median()/1e3, "us")

	ns, _, _ = timed(n, func(int) { keep(c.Ping()) })
	o.set("server.ping_rtt_us", ns.median()/1e3, "us")

	jc, err := s.dial(anonymizer.WithCodec(anonymizer.CodecJSON))
	if err != nil {
		return err
	}
	ns, _, _ = timed(n, func(int) { keep(jc.Ping()) })
	_ = jc.Close()
	o.set("server.ping_rtt_us.json", ns.median()/1e3, "us")

	// 64 pings in flight on one connection: the per-request cost once the
	// round trip's latency is hidden.
	const inFlight, each = 64, 100
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for g := 0; g < inFlight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Ping(); err != nil {
					mu.Lock()
					keep(err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	o.set("server.pipelined_ping_us", micros(time.Since(t0))/(inFlight*each), "us")

	ns, _, _ = timed(100, func(int) {
		nc, err := s.dial()
		keep(err)
		if err == nil {
			_ = nc.Close()
		}
	})
	o.set("server.conn_setup_us", ns.median()/1e3, "us")

	var auth sample
	if s.w.tenants {
		auth, _, _ = timed(n, func(int) { keep(c.Auth("bench", "bench-token")) })
	}
	o.setOptional("tenant.auth_rtt_us", auth.median()/1e3, s.w.tenants, "us")
	if failure != nil {
		return fmt.Errorf("measuring round trips: %w", failure)
	}
	return nil
}
