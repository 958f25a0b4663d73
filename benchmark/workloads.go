package main

import (
	"fmt"
	"strconv"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

// runSeconds is the measured length the frozen request counts below were
// calibrated for (BENCHMARK.json's run_seconds). --seconds scales every
// count by seconds/runSeconds, so a run is always count-based: the same
// flags do the same work, whatever the machine's speed.
const runSeconds = 15

// worldSeed seeds the map and the car simulation, in the server and in the
// harness alike, so both see the same roads and the same densities.
const worldSeed = "reversecloak-default-map-seed-01"

// populationSeed draws the canonical requesters of the engine-bound
// requests (register_paper's list, the reduce pools). It is fixed, NOT
// taken from --seed: anonymize cost at paper scale is so heavy-tailed
// (the dearest 5% of requests are 55% of the time; the same users under
// other keys differ by ±15% at N=200) that a freshly drawn list of
// affordable length measures the draw, not the code.
const populationSeed = 20170605

// requester is the data requester every workload reduces as.
const requester = "reader"

// workloadKind selects the request source.
type workloadKind int

const (
	kindRegister workloadKind = iota // anonymize a canonical user list
	kindReduce                       // reduce a pre-registered pool
	kindMixed                        // stateful read/write mix with churn
)

// workload is one frozen traffic mix and the server it runs against.
type workload struct {
	name string
	why  string // one line for BENCHMARK.json: what only this workload shows
	kind workloadKind

	// Server.
	preset     string // -map
	cars       int    // -cars
	fsync      string // -fsync
	cacheBytes int64  // -reduce-cache-bytes (0 = cache off)
	tenants    bool   // -tenants benchmark/tenants.json
	ttl        time.Duration
	gcInterval time.Duration
	snapEvery  int

	// Requests.
	profile profile.Profile
	pool    int     // regions registered during set-up (kindReduce)
	skew    float64 // zipf exponent of the region draw; <=1 is uniform
	warmup  int     // unmeasured requests before the serial phase

	// Phase sizes at --seconds = runSeconds. The serial phase is `laps`
	// laps of lapSlots slots; repeating says every lap issues the same
	// requests in the same order (see bestQuartile).
	laps, lapSlots int
	repeating      bool
	// inFlight is how many requests the serial phase keeps outstanding on
	// its one connection; 0 means one.
	inFlight int
	openRate float64 // requests per second
	openN    int
	limit    time.Duration // latency limit of the open phase

	// traceN is how many serial requests the traced run replays.
	traceN int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

var paperProfile = profile.Default() // k=10/20/40, l=3/5/8

var denseProfile = profile.Profile{Levels: []profile.Level{
	{K: 8, L: 4}, {K: 16, L: 4}, {K: 32, L: 4},
}}

// Mixed-workload lifecycle, in the server's flags and the generator's
// bookkeeping. Registrations live mixedTTL; the generator only targets
// regions registered or touched within mixedRecency, reduces and touches
// stay inside the mixedWindow most recent ones, and deregistration takes
// the oldest tracked region once more than mixedWindow+mixedMargin are
// tracked — so no two in-flight requests ever race on one region's death.
const (
	mixedTTL     = 4 * time.Second
	mixedRecency = 3 * time.Second
	mixedWindow  = 256
	mixedMargin  = 32
	// mixedVerifyAge bounds the registrations the crash drill checks to
	// those that cannot expire before the restarted server is asked.
	mixedVerifyAge = 2 * time.Second
)

// mixedMix is the op mix in draw slots. An anonymize slot also issues the
// registration's set_trust, counted as its own op, so 80 slots make 100
// operations: 40% reduce, 20% anonymize, 20% set_trust, 10% touch,
// 4% deregister, 3% get_region, 3% request_keys.
var mixedMix = []mixWeight{
	{opReduce, 40}, {opAnonymize, 20}, {opTouch, 10},
	{opDeregister, 4}, {opGetRegion, 3}, {opRequestKeys, 3},
}

// The atlanta pool's 192 reductions and 96 key sets cost 47904 bytes in
// the cache (measured once with -reduce-cache-bytes -1, then frozen).
// reduce_cold gets an eighth of that, so the cache holds an eighth of what
// is asked for. reduce_hot gets twice that, so after warm-up nothing
// misses: at the cold budget zipf(1.5) still missed 31% of requests, and
// since a miss costs ~60 hits the engine was 85% of the server's time.
const (
	reducePool     = 96
	coldCacheBytes = 6000
	hotCacheBytes  = 96 << 10
)

var workloads = []workload{
	{
		name: "register_paper", kind: kindRegister,
		why:    "anonymize at the paper's scale (atlanta map, 10000 cars, k=10/20/40, cache off): 96% of a round trip is the cloak engine, so engine changes show here and wire, journal or cache changes must not",
		preset: "atlanta", cars: 10000, fsync: "interval",
		profile: paperProfile,
		warmup:  8, laps: 1, lapSlots: 240, openRate: 6, openN: 48, limit: time.Second,
		traceN: 60, setups: 1,
	},
	{
		name: "reduce_cold", kind: kindReduce,
		why:    "reduce over a pool several times the cache budget, visited round after round: every request takes the miss path (key derivation, reversal per level, insert and evict) with no journal writes",
		preset: "atlanta", cars: 10000, fsync: "interval",
		cacheBytes: coldCacheBytes,
		profile:    paperProfile, pool: reducePool, skew: 0,
		warmup: 2 * reducePool, laps: 20, lapSlots: reducePool, repeating: true,
		openRate: 90, openN: 540, limit: 100 * time.Millisecond,
		traceN: 4 * reducePool, setups: 1,
	},
	{
		name: "reduce_hot", kind: kindReduce,
		why:    "the same pool and op with a cache that holds it all, zipf(1.5) draws, 8 requests in flight: every request is a hit, so only pipeline, codec and cache lookup are left and engine changes must not show",
		preset: "atlanta", cars: 10000, fsync: "interval",
		cacheBytes: hotCacheBytes,
		profile:    paperProfile, pool: reducePool, skew: 1.5,
		warmup: 2000, laps: 60, lapSlots: 5000, inFlight: 8,
		openRate: 2000, openN: 12000, limit: 10 * time.Millisecond,
		traceN: 20000, setups: 1,
	},
	{
		name: "mixed_dense", kind: kindMixed,
		why:    "writes beside reads on a small map where the engine is cheap (fsync=always, tenants, 4s leases, snapshots, small cache), then kill -9 and recovery: journal, sweeper and cache invalidation dominate",
		preset: "small", cars: 2000, fsync: "always",
		cacheBytes: 64 << 10, tenants: true,
		ttl: mixedTTL, gcInterval: 500 * time.Millisecond, snapEvery: 512,
		profile: denseProfile,
		warmup:  1200, laps: 80, lapSlots: 250, openRate: 1500, openN: 9000, limit: 20 * time.Millisecond,
		traceN: 4000, setups: 5,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serialN is the serial phase's slot count.
func (w workload) serialN() int { return w.laps * w.lapSlots }

// scaled returns the workload with its phase sizes scaled to a measured
// length of `seconds`: a phase of several laps gets more or fewer of them
// (never fewer than four, so a best quartile exists), a phase of one lap a
// longer or shorter one.
func (w workload) scaled(seconds int) workload {
	scale := func(n, least int) int {
		return max((n*seconds+runSeconds/2)/runSeconds, least)
	}
	if w.laps > 1 {
		w.laps = scale(w.laps, 4)
	} else {
		w.lapSlots = scale(w.lapSlots, 20)
	}
	w.openN = scale(w.openN, 20)
	w.traceN = min(w.traceN, w.serialN())
	return w
}

// schedule returns the open phase's n send times. register_paper's come
// from the canonical seed like its users do: which requests overlap a
// slow one decides its latencies, and 48 requests cannot average that out.
func (w workload) schedule(seed int64, n int) []time.Duration {
	if w.kind == kindRegister {
		seed = populationSeed
	}
	return poissonSchedule(newRand(seed, streamArrivals), w.openRate, n)
}

// serveArgs are the `anonymizer serve` flags of the workload's server on
// the given data directory. Listener addresses are added by startChild.
func (w workload) serveArgs(benchDir, dataDir string) []string {
	args := []string{
		"-map", w.preset, "-seed", worldSeed, "-cars", strconv.Itoa(w.cars),
		"-data-dir", dataDir, "-fsync", w.fsync,
		"-master-key-file", benchDir + "/master-key.json", "-master-key-reload", "0",
	}
	if w.cacheBytes != 0 {
		args = append(args, "-reduce-cache-bytes", strconv.FormatInt(w.cacheBytes, 10))
	}
	if w.tenants {
		args = append(args, "-tenants", benchDir+"/tenants.json", "-tenants-reload", "0")
	}
	if w.ttl > 0 {
		args = append(args, "-ttl", w.ttl.String())
	}
	if w.gcInterval > 0 {
		args = append(args, "-gc-interval", w.gcInterval.String())
	}
	if w.snapEvery > 0 {
		args = append(args, "-snapshot-every", strconv.Itoa(w.snapEvery))
	}
	return args
}

// world is the harness's copy of what the server builds at start-up: the
// road network and the car simulation, from the same seed.
type world struct {
	g       *roadnet.Graph
	sim     *trace.Simulation
	sampler *densitySampler

	mapBuild, simBuild time.Duration
}

func buildWorld(w *workload) (*world, error) {
	wd := &world{}
	t := time.Now()
	var err error
	switch w.preset {
	case "atlanta":
		wd.g, err = mapgen.AtlantaNW([]byte(worldSeed))
	case "small":
		wd.g, err = mapgen.Small([]byte(worldSeed))
	default:
		err = fmt.Errorf("unknown map preset %q", w.preset)
	}
	if err != nil {
		return nil, fmt.Errorf("building map: %w", err)
	}
	wd.mapBuild = time.Since(t)
	t = time.Now()
	wd.sim, err = trace.New(wd.g, trace.Config{Cars: w.cars, Seed: []byte(worldSeed)})
	if err != nil {
		return nil, fmt.Errorf("building simulation: %w", err)
	}
	wd.simBuild = time.Since(t)
	wd.sampler = newDensitySampler(wd.sim.Counts())
	return wd, nil
}

// rpleListLength is serve's default -rple-list.
const rpleListLength = 16

// engines builds the cloaking engines the way serve does. RPLE's
// pre-assignment is most of an atlanta server's start-up, so callers that
// never replay an RPLE request pass withRPLE=false.
func (wd *world) engines(withRPLE bool) (map[cloak.Algorithm]*cloak.Engine, map[cloak.Algorithm]time.Duration, error) {
	engines := map[cloak.Algorithm]*cloak.Engine{}
	took := map[cloak.Algorithm]time.Duration{}
	t := time.Now()
	rge, err := cloak.NewEngine(wd.g, wd.sim.UsersOn, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		return nil, nil, fmt.Errorf("building RGE engine: %w", err)
	}
	engines[cloak.RGE], took[cloak.RGE] = rge, time.Since(t)
	if withRPLE {
		t = time.Now()
		pre, err := cloak.NewPreassignment(wd.g, rpleListLength)
		if err != nil {
			return nil, nil, fmt.Errorf("building RPLE tables: %w", err)
		}
		rple, err := cloak.NewEngine(wd.g, wd.sim.UsersOn, cloak.Options{Algorithm: cloak.RPLE, Pre: pre})
		if err != nil {
			return nil, nil, fmt.Errorf("building RPLE engine: %w", err)
		}
		engines[cloak.RPLE], took[cloak.RPLE] = rple, time.Since(t)
	}
	return engines, took, nil
}
