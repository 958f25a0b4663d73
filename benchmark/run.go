package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
)

// runConfig is everything a run needs besides its workload.
type runConfig struct {
	bin      string // built cmd/anonymizer
	benchDir string // this directory: key file, tenants file, out/
	workDir  string // scratch for data dirs, inside the checkout
	seed     int64
	seconds  int
	procs    *children
}

// generatorProcs is the generator's GOMAXPROCS: it must not be able to
// take a small machine away from the server it measures.
func generatorProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// openConnections is how many connections the open phase spreads its
// requests over, round-robin. Responses on a connection come back in
// request order, so on few connections one slow request holds back every
// answer queued behind it: on two, register_paper's open median was 13 to
// 158ms across runs of identical requests. Independent users do not share
// a connection; sixteen keeps them all but apart.
const openConnections = 16

// server is one set-up server: the child, its data directory and the
// generator's connections to it.
type server struct {
	w       *workload
	cfg     *runConfig
	dataDir string
	child   *child
	conns   []*anonymizer.Client
}

// dial opens a connection the way every generated request travels: codec
// auto, authenticated when the server has tenants.
func (s *server) dial(opts ...anonymizer.ClientOption) (*anonymizer.Client, error) {
	c, err := anonymizer.Dial(s.child.addr, opts...)
	if err != nil {
		return nil, err
	}
	if s.w.tenants {
		if err := c.Auth("bench", "bench-token"); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("authenticating: %w", err)
		}
	}
	return c, nil
}

// startServer executes serve on dataDir and connects to it.
func startServer(cfg *runConfig, w *workload, dataDir string) (*server, error) {
	s := &server{w: w, cfg: cfg, dataDir: dataDir}
	var err error
	s.child, err = cfg.procs.start(cfg.bin, w.serveArgs(cfg.benchDir, dataDir))
	if err != nil {
		return nil, err
	}
	for i := 0; i < openConnections; i++ {
		c, err := s.dial()
		if err != nil {
			s.close(false)
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// close disconnects, stops (or, for the crash drill, kills) the child and
// waits for it to end. Closing twice is harmless.
func (s *server) close(crash bool) {
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.conns = nil
	switch {
	case s.child == nil:
	case crash:
		s.cfg.procs.kill(s.child)
	default:
		s.cfg.procs.stop(s.child)
	}
	s.child = nil
}

// discard closes the server and deletes its data directory.
func (s *server) discard() {
	s.close(false)
	_ = os.RemoveAll(s.dataDir)
}

// freshDataDir returns an empty directory for one server's store.
func (cfg *runConfig) freshDataDir(name string) (string, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// setup is one completed set-up: the server, the source positioned at its
// first measured request, and how long getting there took.
type setup struct {
	s    *server
	src  source
	took time.Duration
	// log holds every set-up and warm-up request, when asked for: the
	// traced run replays them so its region IDs line up with the server's.
	log []opRecord
}

// setUp brings a workload to the point where its first measured request
// can be sent: exec serve, wait for the banner, connect, register the
// pool, warm up.
func setUp(cfg *runConfig, w *workload, wd *world, keepLog bool) (*setup, error) {
	dataDir, err := cfg.freshDataDir(w.name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := startServer(cfg, w, dataDir)
	if err != nil {
		_ = os.RemoveAll(dataDir)
		return nil, err
	}
	su := &setup{s: s, src: newSource(w, wd, cfg.seed)}
	fail := func(err error) (*setup, error) {
		s.discard()
		return nil, err
	}
	var record func(*request, result)
	if keepLog {
		record = func(req *request, res result) { su.log = append(su.log, opRecord{req: *req, res: res}) }
	}
	if err := su.src.prepare(s.conns[0], record); err != nil {
		return fail(err)
	}
	su.src.beginPhase(phaseWarmup)
	warm, err := runSerial(s, su.src, serialPlan{laps: 1, lapSlots: w.warmup, keepLog: keepLog})
	if err != nil {
		return fail(err)
	}
	if warm.failed > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempt, warm.errs))
	}
	su.log = append(su.log, warm.log...)
	su.took = time.Since(start)
	return su, nil
}

// e2eRun is the outcome of one untraced run.
type e2eRun struct {
	w      *workload
	setups sample // seconds, one per set-up
	ready  sample // seconds from exec to banner, one per set-up
	serial *phaseStats
	open   *phaseStats
	// setupYard is the yardstick over all the set-ups, microseconds, from
	// setupYardReadings readings.
	setupYard         float64
	setupYardReadings int
	// drill is the crash drill (mixed workloads only): one reduce per
	// surviving registration against the restarted server.
	drill   *phaseStats
	restart time.Duration
	digest  uint64 // reduce workloads: digest of every distinct answer
	answers int
	// scraped is the server's /metrics after the open phase; nil when the
	// scrape failed. It feeds report lines only, never a metric.
	scraped  promSnapshot
	dataRoot string
}

// runE2E measures one workload end to end, tracing off.
func runE2E(cfg *runConfig, base *workload) (*e2eRun, error) {
	w := base.scaled(cfg.seconds)
	wd, err := buildWorld(&w)
	if err != nil {
		return nil, err
	}
	run := &e2eRun{w: &w, dataRoot: cfg.workDir}

	yard, err := newYardstick()
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	defer yard.close()

	// Set up w.setups times; measure on the last one.
	stopYard := yard.readInBackground()
	var su *setup
	for i := 0; i < w.setups; i++ {
		if su != nil {
			su.s.discard()
		}
		if su, err = setUp(cfg, &w, wd, false); err != nil {
			_ = stopYard()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, su.took.Seconds())
		run.ready = append(run.ready, su.s.child.readyAfter.Seconds())
	}
	s, src := su.s, su.src
	defer s.discard()
	if err := stopYard(); err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	run.setupYard, run.setupYardReadings = yard.reading()

	src.beginPhase(phaseSerial)
	if run.serial, err = runSerial(s, src, serialPlan{laps: w.laps, lapSlots: w.lapSlots, inFlight: w.inFlight, yard: yard}); err != nil {
		return nil, err
	}
	run.serial.repeating = w.repeating
	src.beginPhase(phaseOpen)
	if run.open, err = runOpen(s, src, w.schedule(cfg.seed, w.openN)); err != nil {
		return nil, err
	}
	run.scraped, _ = scrapeMetrics(s.child.admin) // report lines only; absence is fine

	switch src := src.(type) {
	case *reduceSource:
		run.digest, run.answers = src.digest()
	case *mixedSource:
		if run.drill, run.restart, err = crashDrill(cfg, &w, s, src); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// crashDrill kills the server with SIGKILL, restarts it on the same data
// directory, and asks the restarted server to reduce every registration
// that was acknowledged and is still within its lease: each must come
// back as exactly its user's segment.
func crashDrill(cfg *runConfig, w *workload, s *server, src *mixedSource) (*phaseStats, time.Duration, error) {
	survivors := src.survivors(time.Now())
	s.close(true)
	start := time.Now()
	s2, err := startServer(cfg, w, s.dataDir)
	if err != nil {
		return nil, 0, fmt.Errorf("crash drill: restart: %w", err)
	}
	defer s2.close(false)
	restart := time.Since(start)
	d := &phaseStats{}
	for _, reg := range survivors {
		t0 := time.Now()
		res := execute(s2.conns[0], w.profile, &request{kind: opReduce, level: 0, target: reg})
		d.record(opReduce, micros(time.Since(t0)), res.err)
	}
	return d, restart, nil
}
