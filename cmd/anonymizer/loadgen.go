package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/anonymizer"
)

// runLoadgen sweeps concurrent-client counts against a running server and
// reports the achieved registration throughput per step. Registrations do
// not accumulate on the server: by default every registration the
// generator creates is deregistered again (so long runs against a durable
// store do not grow the WAL without bound), and with -ttl the
// registrations instead carry a TTL and are left for the server's expiry
// sweeper to reclaim — the TTL-churn workload of a production deployment.
func runLoadgen(argv []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7080", "server address")
		sweep    = fs.String("clients", "1,4,16,64", "comma-separated concurrent client counts")
		duration = fs.Duration("duration", 3*time.Second, "measurement window per step")
		kAnon    = fs.Int("k", 8, "anonymity k of the single-level test profile")
		lDiv     = fs.Int("l", 4, "diversity l of the single-level test profile")
		batch    = fs.Int("batch", 0, "items per anonymize_batch request (0 = single ops)")
		segments = fs.Int("segments", 500, "spread users over segment IDs [0, segments)")
		ttl      = fs.Duration("ttl", 0,
			"register with this TTL and let the server expire the registrations (0 = deregister each one)")
		readAddr = fs.String("read-addr", "",
			"aim a get_region read at this address (e.g. a replication follower) after each registration; "+
				"unknown-region responses count as stale reads (replication lag)")
		reduceFrac = fs.Float64("reduce-frac", 0,
			"fraction of requests that reduce a pre-registered region instead of anonymizing (0..1)")
		skew = fs.Float64("skew", 0,
			"zipf exponent for choosing which region to reduce (> 1 skews toward a hot set; <= 1 = uniform)")
		poolSize = fs.Int("regions", 512,
			"pre-registered region pool the reduce workload draws from (with -reduce-frac)")
		levels = fs.Int("levels", 1,
			"privacy levels of the test profile (each level doubles k; > 1 makes reduces peel)")
		tenantName = fs.String("tenant", "", "authenticate every connection as this tenant")
		token      = fs.String("token", "", "tenant token for -tenant")
		codec      = fs.String("codec", "auto", "wire codec: auto, json or binary")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if err := setWireCodec(*codec); err != nil {
		return err
	}
	counts, err := parseInts(*sweep)
	if err != nil {
		return fmt.Errorf("parsing -clients: %w", err)
	}
	if len(counts) == 0 {
		return fmt.Errorf("empty -clients sweep")
	}
	if *reduceFrac < 0 || *reduceFrac > 1 {
		return fmt.Errorf("-reduce-frac %v outside [0, 1]", *reduceFrac)
	}
	if *levels < 1 {
		return fmt.Errorf("-levels must be >= 1")
	}
	prof := rc.Profile{}
	for lv, k := 0, *kAnon; lv < *levels; lv, k = lv+1, k*2 {
		prof.Levels = append(prof.Levels, rc.Level{K: k, L: *lDiv})
	}

	// Fail fast if the server is unreachable (or the credentials are bad).
	probe, err := dialAuthed(*addr, *tenantName, *token)
	if err != nil {
		return err
	}
	if err := probe.Ping(); err != nil {
		_ = probe.Close()
		return err
	}

	// With a reduce workload, pre-register the region pool the reduce
	// requests draw from and entitle the "reader" requester to level 0,
	// so every reduce peels the full level stack (the server's hot read
	// path, cache-friendly or not).
	var pool []string
	if *reduceFrac > 0 {
		for u := 0; len(pool) < *poolSize && u < *segments*4; u++ {
			id, _, err := probe.Anonymize(rc.SegmentID(u%*segments), prof, "RGE")
			if err != nil {
				if errors.Is(err, rc.ErrRemote) {
					continue // infeasible cloak at this segment; try the next
				}
				_ = probe.Close()
				return fmt.Errorf("registering reduce pool: %w", err)
			}
			if err := probe.SetTrust(id, "reader", 0); err != nil {
				_ = probe.Close()
				return fmt.Errorf("granting reduce pool trust: %w", err)
			}
			pool = append(pool, id)
		}
		if len(pool) == 0 {
			_ = probe.Close()
			return fmt.Errorf("reduce pool: no feasible cloaks on this map")
		}
		defer func() {
			cl, err := dialAuthed(*addr, *tenantName, *token)
			if err != nil {
				return
			}
			for _, id := range pool {
				_ = cl.Deregister(id)
			}
			_ = cl.Close()
		}()
	}
	_ = probe.Close()

	cleanup := "deregister"
	if *ttl > 0 {
		cleanup = fmt.Sprintf("ttl=%s", *ttl)
	}
	fmt.Printf("loadgen against %s: %v clients, %s per step, batch=%d, cleanup=%s\n",
		*addr, counts, *duration, *batch, cleanup)
	if len(pool) > 0 {
		fmt.Printf("reduce workload: frac=%.2f pool=%d levels=%d skew=%.2f\n",
			*reduceFrac, len(pool), *levels, *skew)
	}
	switch {
	case *readAddr != "":
		fmt.Printf("reads against %s (stale = registration not yet replicated)\n", *readAddr)
		fmt.Printf("%-10s %12s %12s %10s %12s %10s %10s\n",
			"clients", "req/s", "ok", "failed", "reads/s", "stale", "speedup")
	case len(pool) > 0:
		fmt.Printf("%-10s %12s %12s %10s %12s %10s\n",
			"clients", "req/s", "ok", "failed", "reduce/s", "speedup")
	default:
		fmt.Printf("%-10s %12s %12s %10s %10s\n", "clients", "req/s", "ok", "failed", "speedup")
	}
	var base float64
	var totalDenied, totalThrottled, totalReduces int64
	for _, n := range counts {
		res, err := runStep(*addr, *readAddr, *tenantName, *token, n, *duration, prof, *batch, *segments, *ttl,
			*reduceFrac, *skew, pool)
		if err != nil {
			return fmt.Errorf("step clients=%d: %w", n, err)
		}
		totalDenied += res.denied
		totalThrottled += res.throttled
		totalReduces += res.reduces
		rate := float64(res.done) / duration.Seconds()
		if base == 0 && rate > 0 {
			base = rate
		}
		speedup := 0.0
		if base > 0 {
			speedup = rate / base
		}
		ok := res.done - res.failed - res.denied - res.throttled
		switch {
		case *readAddr != "":
			fmt.Printf("%-10d %12.0f %12d %10d %12.0f %10d %9.2fx\n",
				n, rate, ok, res.failed,
				float64(res.reads)/duration.Seconds(), res.stale, speedup)
		case len(pool) > 0:
			fmt.Printf("%-10d %12.0f %12d %10d %12.0f %9.2fx\n",
				n, rate, ok, res.failed,
				float64(res.reduces)/duration.Seconds(), speedup)
		default:
			fmt.Printf("%-10d %12.0f %12d %10d %9.2fx\n",
				n, rate, ok, res.failed, speedup)
		}
	}
	// Trust-boundary rejections, on one grep-friendly line: capability
	// denials and rate-limit throttles are the expected outcome when the
	// workload exceeds the tenant's grants, not generic failures.
	fmt.Printf("rejected: denied=%d throttled=%d\n", totalDenied, totalThrottled)
	if len(pool) > 0 {
		// The hit-rate-relevant shape of the reduce leg, grep-friendly:
		// with skew > 1 most reduces land on a small hot set, so a server
		// cache (serve -reduce-cache-bytes) should turn most of these
		// into anonymizer_reduce_cache_hits_total on /metrics.
		fmt.Printf("reduces: total=%d pool=%d skew=%.2f frac=%.2f\n",
			totalReduces, len(pool), *skew, *reduceFrac)
	}
	return nil
}

// wireCodec is the codec selected by the running subcommand's -codec
// flag (auto when the subcommand has none); dialAuthed applies it to
// every connection it opens.
var wireCodec = anonymizer.CodecAuto

// setWireCodec parses a -codec flag value into wireCodec.
func setWireCodec(s string) error {
	c, err := anonymizer.ParseCodec(s)
	if err != nil {
		return err
	}
	wireCodec = c
	return nil
}

// dialAuthed dials the server (in the selected wire codec) and
// authenticates when credentials are set.
func dialAuthed(addr, tenant, token string) (*rc.Client, error) {
	c, err := anonymizer.Dial(addr, anonymizer.WithCodec(wireCodec))
	if err != nil {
		return nil, err
	}
	if tenant != "" || token != "" {
		if err := c.Auth(tenant, token); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("auth as %q: %w", tenant, err)
		}
	}
	return c, nil
}

// stepResult aggregates one sweep step's counters.
type stepResult struct {
	done      int64 // completed requests
	failed    int64 // server-side failures among them
	reads     int64 // follower reads issued
	stale     int64 // follower reads that missed (not yet replicated)
	denied    int64 // capability rejections (tenant lacks the grant)
	throttled int64 // rate-limit rejections (tenant over budget)
	reduces   int64 // reduce requests issued against the region pool
}

// runStep drives n concurrent clients (one connection each) for the window
// and returns the step's counters. Cloak failures count as completed
// requests — the server did the work — while transport errors abort the
// step. With ttl == 0, every successful registration is deregistered
// before the next request, so the step leaves no state behind. With a
// readAddr, each worker also holds a connection there and reads back
// every registration it creates — aimed at a replication follower, the
// stale count exposes replication lag under this write load.
func runStep(
	addr, readAddr, tenant, token string,
	n int,
	window time.Duration,
	prof rc.Profile,
	batch, segments int,
	ttl time.Duration,
	reduceFrac, skew float64,
	pool []string,
) (*stepResult, error) {
	clients := make([]*rc.Client, n)
	for i := range clients {
		c, err := dialAuthed(addr, tenant, token)
		if err != nil {
			return nil, err
		}
		defer func() { _ = c.Close() }()
		clients[i] = c
	}
	readers := make([]*rc.Client, n)
	if readAddr != "" {
		for i := range readers {
			c, err := dialAuthed(readAddr, tenant, token)
			if err != nil {
				return nil, err
			}
			defer func() { _ = c.Close() }()
			readers[i] = c
		}
	}
	var (
		done      atomic.Int64
		failed    atomic.Int64
		reads     atomic.Int64
		stale     atomic.Int64
		denied    atomic.Int64
		throttled atomic.Int64
		reduces   atomic.Int64
		transport atomic.Pointer[error]
		wg        sync.WaitGroup
	)
	// reject classifies a server-side rejection into the right counter and
	// reports whether it swallowed the error; transport errors stay fatal.
	// Order matters: denied/throttled are ErrRemote too, so the generic
	// bucket is last.
	reject := func(err error) bool {
		switch {
		case errors.Is(err, anonymizer.ErrDenied):
			denied.Add(1)
		case errors.Is(err, anonymizer.ErrThrottled):
			throttled.Add(1)
		case errors.Is(err, rc.ErrRemote):
			failed.Add(1)
		default:
			return false
		}
		return true
	}
	// release deregisters one registration when the step owns cleanup;
	// with a TTL the server's sweeper reclaims it instead.
	release := func(c *rc.Client, id string) error {
		if ttl > 0 {
			return nil
		}
		if err := c.Deregister(id); err != nil {
			if reject(err) {
				return nil
			}
			return err
		}
		return nil
	}
	deadline := time.Now().Add(window)
	for w, c := range clients {
		wg.Add(1)
		go func(c, rd *rc.Client, w int) {
			defer wg.Done()
			// read checks one fresh registration on the read address; a
			// miss is replication lag, not an error. Read BEFORE release so
			// a deregister cannot race the read.
			read := func(id string) error {
				if rd == nil {
					return nil
				}
				reads.Add(1)
				if _, _, err := rd.GetRegion(id); err != nil {
					if errors.Is(err, rc.ErrRemote) {
						stale.Add(1)
						return nil
					}
					return err
				}
				return nil
			}
			// Per-worker region picker for the reduce workload: skew > 1
			// concentrates the choices zipfian-style on a hot subset of the
			// pool (the realistic shape of LBS read traffic — a few busy
			// regions absorb most queries); otherwise uniform.
			var (
				rng  *rand.Rand
				zipf *rand.Zipf
			)
			if len(pool) > 0 {
				rng = rand.New(rand.NewSource(int64(w)*6364136223846793005 + 1442695040888963407))
				if skew > 1 && len(pool) > 1 {
					zipf = rand.NewZipf(rng, skew, 1, uint64(len(pool)-1))
				}
			}
			pickRegion := func() string {
				if zipf != nil {
					return pool[zipf.Uint64()]
				}
				return pool[rng.Intn(len(pool))]
			}
			i := 0
			for time.Now().Before(deadline) {
				if len(pool) > 0 && rng.Float64() < reduceFrac {
					if _, _, err := c.Reduce(pickRegion(), "reader", 0); err != nil {
						if reject(err) {
							done.Add(1)
							continue
						}
						transport.Store(&err)
						return
					}
					reduces.Add(1)
					done.Add(1)
					continue
				}
				if batch > 0 {
					specs := make([]anonymizer.AnonymizeSpec, batch)
					for j := range specs {
						specs[j] = anonymizer.AnonymizeSpec{
							User:    rc.SegmentID((w*131 + i*17 + j) % segments),
							Profile: prof,
							TTL:     ttl,
						}
						i++
					}
					results, err := c.AnonymizeBatch(specs)
					if err != nil {
						if reject(err) {
							done.Add(int64(len(specs)))
							continue
						}
						transport.Store(&err)
						return
					}
					for _, r := range results {
						if r.Err != nil {
							failed.Add(1)
							continue
						}
						if err := read(r.RegionID); err != nil {
							transport.Store(&err)
							return
						}
						if err := release(c, r.RegionID); err != nil {
							transport.Store(&err)
							return
						}
					}
					done.Add(int64(len(results)))
					continue
				}
				user := rc.SegmentID((w*131 + i*17) % segments)
				i++
				id, _, err := c.AnonymizeTTL(user, prof, "RGE", ttl)
				if err != nil {
					if reject(err) {
						done.Add(1)
						continue
					}
					transport.Store(&err)
					return
				}
				if err := read(id); err != nil {
					transport.Store(&err)
					return
				}
				if err := release(c, id); err != nil {
					transport.Store(&err)
					return
				}
				done.Add(1)
			}
		}(c, readers[w], w)
	}
	wg.Wait()
	res := &stepResult{
		done: done.Load(), failed: failed.Load(),
		reads: reads.Load(), stale: stale.Load(),
		denied: denied.Load(), throttled: throttled.Load(),
		reduces: reduces.Load(),
	}
	if errp := transport.Load(); errp != nil {
		return res, *errp
	}
	return res, nil
}
