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

// The test profile and user spread of every loadgen request: one level
// of (k, l) = (8, 4) over segment IDs [0, loadSegments).
const (
	loadK        = 8
	loadL        = 4
	loadSegments = 500
)

// runLoadgen offers load from a fixed number of concurrent clients against
// a running server for one window and reports what it achieved. It exists
// to leave state, rejections and cache hits behind for the end-to-end
// scripts to check; the benchmark/ module measures throughput. By default
// every registration it creates is deregistered again (so long runs
// against a durable store do not grow the WAL without bound); with -ttl
// the registrations instead carry a TTL and are left for the server's
// expiry sweeper to reclaim.
func runLoadgen(argv []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7080", "server address")
		clients  = fs.Int("clients", 4, "concurrent clients, one connection each")
		duration = fs.Duration("duration", 3*time.Second, "measurement window")
		ttl      = fs.Duration("ttl", 0,
			"register with this TTL and let the server expire the registrations (0 = deregister each one)")
		reduceFrac = fs.Float64("reduce-frac", 0,
			"fraction of requests that reduce a pre-registered region instead of anonymizing (0..1)")
		skew = fs.Float64("skew", 0,
			"zipf exponent for choosing which region to reduce (> 1 skews toward a hot set; <= 1 = uniform)")
		poolSize = fs.Int("regions", 512,
			"pre-registered region pool the reduce workload draws from (with -reduce-frac)")
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
	if *clients < 1 {
		return fmt.Errorf("-clients must be >= 1")
	}
	if *reduceFrac < 0 || *reduceFrac > 1 {
		return fmt.Errorf("-reduce-frac %v outside [0, 1]", *reduceFrac)
	}
	prof := rc.Profile{Levels: []rc.Level{{K: loadK, L: loadL}}}

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
	// so every reduce peels the level (the server's hot read path,
	// cache-friendly or not).
	var pool []string
	if *reduceFrac > 0 {
		for u := 0; len(pool) < *poolSize && u < loadSegments*4; u++ {
			id, _, err := probe.Anonymize(rc.SegmentID(u%loadSegments), prof, "RGE")
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
	fmt.Printf("loadgen against %s: %d clients, %s, cleanup=%s\n",
		*addr, *clients, *duration, cleanup)
	if len(pool) > 0 {
		fmt.Printf("reduce workload: frac=%.2f pool=%d skew=%.2f\n", *reduceFrac, len(pool), *skew)
	}
	res, err := runLoad(*addr, *tenantName, *token, *clients, *duration, prof, *ttl,
		*reduceFrac, *skew, pool)
	if err != nil {
		return err
	}
	// Rates divide by the window's real length: every client finishes the
	// request it started before the deadline, so it outlasts -duration.
	secs := res.elapsed.Seconds()
	ok := res.done - res.failed - res.denied - res.throttled
	fmt.Printf("req/s=%.0f ok=%d failed=%d\n", float64(res.done)/secs, ok, res.failed)
	// Trust-boundary rejections, on one grep-friendly line: capability
	// denials and rate-limit throttles are the expected outcome when the
	// workload exceeds the tenant's grants, not generic failures.
	fmt.Printf("rejected: denied=%d throttled=%d\n", res.denied, res.throttled)
	if len(pool) > 0 {
		// The hit-rate-relevant shape of the reduce leg, grep-friendly:
		// with skew > 1 most reduces land on a small hot set, so a server
		// cache (serve -reduce-cache-bytes) should turn most of these
		// into anonymizer_reduce_cache_hits_total on /metrics.
		fmt.Printf("reduces: total=%d pool=%d skew=%.2f frac=%.2f\n",
			res.reduces, len(pool), *skew, *reduceFrac)
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

// loadResult aggregates one load window's counters.
type loadResult struct {
	done      int64 // completed requests
	failed    int64 // server-side failures among them
	denied    int64 // capability rejections (tenant lacks the grant)
	throttled int64 // rate-limit rejections (tenant over budget)
	reduces   int64 // reduce requests issued against the region pool

	// elapsed runs from the window's start until the last client stopped.
	elapsed time.Duration
}

// runLoad drives n concurrent clients (one connection each) for the window
// and returns the window's counters and real length. Cloak failures count
// as completed requests — the server did the work — while transport
// errors abort the window. With ttl == 0, every successful registration is
// deregistered before the next request, so the window leaves no state
// behind.
func runLoad(
	addr, tenant, token string,
	n int,
	window time.Duration,
	prof rc.Profile,
	ttl time.Duration,
	reduceFrac, skew float64,
	pool []string,
) (*loadResult, error) {
	clients := make([]*rc.Client, n)
	for i := range clients {
		c, err := dialAuthed(addr, tenant, token)
		if err != nil {
			return nil, err
		}
		defer func() { _ = c.Close() }()
		clients[i] = c
	}
	var (
		done      atomic.Int64
		failed    atomic.Int64
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
	start := time.Now()
	deadline := start.Add(window)
	for w, c := range clients {
		wg.Add(1)
		go func(c *rc.Client, w int) {
			defer wg.Done()
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
				user := rc.SegmentID((w*131 + i*17) % loadSegments)
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
				if err := release(c, id); err != nil {
					transport.Store(&err)
					return
				}
				done.Add(1)
			}
		}(c, w)
	}
	wg.Wait()
	res := &loadResult{
		done: done.Load(), failed: failed.Load(),
		denied: denied.Load(), throttled: throttled.Load(),
		reduces: reduces.Load(),
		elapsed: time.Since(start),
	}
	if errp := transport.Load(); errp != nil {
		return res, *errp
	}
	return res, nil
}
