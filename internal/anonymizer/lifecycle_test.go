package anonymizer

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a concurrency-safe manual clock for expiry tests.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Now().UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()).UTC() }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestShardedStoreTTLLifecycle walks the store, in both modes, through
// the full registered → expired lifecycle on a manual clock: default TTLs
// apply, expiry is visible immediately (lazy), mutations on expired
// entries fail like unknown regions, and the sweeper returns the store to
// its pre-load entry count.
func TestShardedStoreTTLLifecycle(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			clock := newFakeClock()
			st := openDurable(t, mode.dir, WithTTL(time.Minute), WithGCInterval(0), WithClock(clock.Now))

			var defIDs, longIDs []string
			for i := 0; i < 20; i++ {
				id, err := st.Register(fakeRegistration(t, 2))
				if err != nil {
					t.Fatal(err)
				}
				defIDs = append(defIDs, id)
			}
			for i := 0; i < 5; i++ {
				reg := fakeRegistration(t, 2)
				reg.SetExpiry(clock.Now().Add(time.Hour))
				id, err := st.Register(reg)
				if err != nil {
					t.Fatal(err)
				}
				longIDs = append(longIDs, id)
			}
			if got := st.Len(); got != 25 {
				t.Fatalf("Len = %d, want 25", got)
			}
			for _, id := range defIDs {
				if _, err := st.Lookup(id); err != nil {
					t.Fatalf("Lookup(%q) before expiry: %v", id, err)
				}
			}

			clock.Advance(61 * time.Second)
			for _, id := range defIDs[:3] {
				if _, err := st.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
					t.Errorf("Lookup(%q) after expiry: %v, want ErrUnknownRegion", id, err)
				}
				if err := st.SetTrust(id, "x", 0); !errors.Is(err, ErrUnknownRegion) {
					t.Errorf("SetTrust(%q) after expiry: %v, want ErrUnknownRegion", id, err)
				}
				if err := st.Deregister(id); !errors.Is(err, ErrUnknownRegion) {
					t.Errorf("Deregister(%q) after expiry: %v, want ErrUnknownRegion", id, err)
				}
			}
			for _, id := range longIDs {
				if _, err := st.Lookup(id); err != nil {
					t.Fatalf("Lookup(%q) of long-TTL entry: %v", id, err)
				}
			}
			if n, _ := st.SweepExpired(); n != 20 {
				t.Fatalf("SweepExpired = %d, want 20", n)
			}
			if got := st.Len(); got != 5 {
				t.Fatalf("Len after sweep = %d, want 5", got)
			}

			clock.Advance(time.Hour)
			if n, _ := st.SweepExpired(); n != 5 {
				t.Fatalf("second SweepExpired = %d, want 5", n)
			}
			if got := st.Len(); got != 0 {
				t.Fatalf("Len after full expiry = %d, want 0 (pre-load count)", got)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedStoreSweeperBackground checks the lazily-started background
// sweeper actually reclaims expired registrations on its own.
func TestShardedStoreSweeperBackground(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			st := openDurable(t, mode.dir, WithTTL(5*time.Millisecond), WithGCInterval(5*time.Millisecond))
			for i := 0; i < 10; i++ {
				if _, err := st.Register(fakeRegistration(t, 1)); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for st.Len() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("sweeper left %d registrations after 5s", st.Len())
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}

// TestDurableStoreTTLSweepAndRecovery drives the durable store through
// expiry on a manual clock, including a clean reopen and a crash-style
// reopen: the sweeper journals expire mutations, a reopened store never
// resurrects a dead region, and the entry count returns to the pre-load
// level in both lifetimes.
func TestDurableStoreTTLSweepAndRecovery(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	open := func() *DurableStore {
		st, err := OpenDurableStore(dir,
			WithFsyncPolicy(FsyncAlways),
			WithGCInterval(0), WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	var shortIDs, keepIDs []string
	for i := 0; i < 6; i++ {
		reg := fakeRegistration(t, 2)
		reg.SetExpiry(clock.Now().Add(time.Minute))
		id, err := st.Register(reg)
		if err != nil {
			t.Fatal(err)
		}
		shortIDs = append(shortIDs, id)
	}
	for i := 0; i < 4; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		keepIDs = append(keepIDs, id)
	}

	clock.Advance(2 * time.Minute)
	for _, id := range shortIDs {
		if _, err := st.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
			t.Errorf("Lookup(%q) after TTL: %v, want ErrUnknownRegion", id, err)
		}
	}
	n, err := st.SweepExpired()
	if err != nil || n != 6 {
		t.Fatalf("SweepExpired = %d, %v; want 6", n, err)
	}
	if got := st.Len(); got != 4 {
		t.Fatalf("Len after sweep = %d, want 4", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: the journaled expire mutations (and the expired
	// register records behind them) must not come back.
	st2 := open()
	if got := st2.Len(); got != 4 {
		t.Fatalf("Len after reopen = %d, want 4", got)
	}
	if st2.Recovery().Expired == 0 {
		t.Error("recovery reported no expired registrations")
	}
	for _, id := range keepIDs {
		if _, err := st2.Lookup(id); err != nil {
			t.Errorf("Lookup(%q) after reopen: %v", id, err)
		}
	}

	// Crash while expired-but-unswept state exists: register short-TTL
	// entries, abandon the store without Close or sweep, and reopen after
	// the TTL elapsed. Recovery itself must drop them.
	var crashIDs []string
	for i := 0; i < 3; i++ {
		reg := fakeRegistration(t, 2)
		reg.SetExpiry(clock.Now().Add(time.Minute))
		id, err := st2.Register(reg)
		if err != nil {
			t.Fatal(err)
		}
		crashIDs = append(crashIDs, id)
	}
	clock.Advance(2 * time.Minute) // TTL elapses "while the store is down"

	st3 := open()
	defer func() { _ = st3.Close() }()
	if got := st3.Len(); got != 4 {
		t.Fatalf("Len after crash reopen = %d, want 4 (dead regions resurrected?)", got)
	}
	for _, id := range crashIDs {
		if _, err := st3.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
			t.Errorf("Lookup(%q) after crash reopen: %v, want ErrUnknownRegion", id, err)
		}
	}
	if st3.Recovery().Expired < 3 {
		t.Errorf("crash recovery Expired = %d, want >= 3", st3.Recovery().Expired)
	}
}

// TestDurableStoreCompactionReclaimsExpired pins compaction as a
// reclamation point: with the sweeper disabled, a snapshot excludes
// expired registrations and drops them from memory, so their keys do not
// outlive the TTL on disk.
func TestDurableStoreCompactionReclaimsExpired(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithGCInterval(0), WithSnapshotEvery(0), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		reg := fakeRegistration(t, 2)
		reg.SetExpiry(clock.Now().Add(time.Minute))
		id, err := st.Register(reg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	keep, err := st.Register(fakeRegistration(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	if got := st.Len(); got != 6 {
		t.Fatalf("Len before compaction = %d, want 6 (expired entries unswept)", got)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 1 {
		t.Errorf("Len after compaction = %d, want 1", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDurableStore(dir, WithGCInterval(0), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	if got := st2.Len(); got != 1 {
		t.Errorf("Len after reopen = %d, want 1", got)
	}
	if _, err := st2.Lookup(keep); err != nil {
		t.Errorf("unexpired registration lost in compaction: %v", err)
	}
	for _, id := range ids {
		if _, err := st2.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
			t.Errorf("expired %q survived compaction: %v", id, err)
		}
	}
}

// TestTTLMillisRounding pins the wire encoding of TTLs: sub-millisecond
// magnitudes round away from zero so they cannot collapse into the
// "server default" sentinel.
func TestTTLMillisRounding(t *testing.T) {
	for _, tc := range []struct {
		in   time.Duration
		want int64
	}{
		{0, 0}, {time.Second, 1000}, {500 * time.Microsecond, 1},
		{-500 * time.Microsecond, -1}, {-time.Second, -1000},
	} {
		if got := ttlMillis(tc.in); got != tc.want {
			t.Errorf("ttlMillis(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestDurableStoreDefaultTTLJournaled checks a store-default TTL is
// stamped into the journaled registration, so it binds across restarts.
func TestDurableStoreDefaultTTLJournaled(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	st, err := OpenDurableStore(dir, WithTTL(time.Minute), WithGCInterval(0), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.Register(fakeRegistration(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := st.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Expiry().IsZero() {
		t.Fatal("default TTL not stamped on the stored registration")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Minute)
	st2, err := OpenDurableStore(dir, WithGCInterval(0), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	if _, err := st2.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("default-TTL registration resurrected after restart: %v", err)
	}
	if st2.Recovery().Expired != 1 {
		t.Errorf("Expired = %d, want 1", st2.Recovery().Expired)
	}
}

// TestGroupCommitCrashDurability hammers an fsync=always store with mixed
// mutations from many goroutines — the group-commit cohort path,
// including snapshot truncation mid-flight — abandons it without Close,
// and verifies the reopened state matches every acknowledgement.
func TestGroupCommitCrashDurability(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurableStore(dir,
		WithFsyncPolicy(FsyncAlways), WithSnapshotEvery(8))
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 20
	var (
		mu       sync.Mutex
		live     = make(map[string]bool)
		deregged = make(map[string]bool)
		wg       sync.WaitGroup
	)
	protoRegs := make([]*Registration, goroutines)
	for w := range protoRegs {
		protoRegs[w] = fakeRegistration(t, 2)
	}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id, err := st.Register(protoRegs[w])
				if err != nil {
					panic(err)
				}
				if err := st.SetTrust(id, "reader", 1); err != nil {
					panic(err)
				}
				if i%4 == 0 {
					if err := st.Deregister(id); err != nil {
						panic(err)
					}
					mu.Lock()
					deregged[id] = true
					mu.Unlock()
					continue
				}
				mu.Lock()
				live[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// Crash: abandon without Close. fsync=always means every acked
	// mutation above must be on disk already.
	st2, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	if got := st2.Len(); got != len(live) {
		t.Fatalf("recovered %d registrations, acked %d", got, len(live))
	}
	for id := range live {
		reg, err := st2.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%q) after crash: %v", id, err)
		}
		if lv, err := reg.policy.LevelFor("reader"); err != nil || lv != 1 {
			t.Fatalf("LevelFor(reader) on %q = %d, %v; want 1", id, lv, err)
		}
	}
	for id := range deregged {
		if _, err := st2.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
			t.Fatalf("deregistered %q resolved after crash: %v", id, err)
		}
	}
}

// TestServerTTLEndToEnd exercises the TTL field over the wire: a client
// registers with a TTL against a fake-clock store, and the registration
// vanishes for every operation once the clock passes the expiry. The clock
// is years from the wall clock, so an expiry stamped by any other clock
// than the store's shows.
func TestServerTTLEndToEnd(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			clock := newFakeClock()
			clock.ns.Store(time.Date(2001, 9, 9, 0, 0, 0, 0, time.UTC).UnixNano())
			st := openDurable(t, mode.dir, WithGCInterval(0), WithClock(clock.Now))
			g, density := testGrid(t)
			srv := newTestServer(t, g, density, WithStore(st))
			addr := startTestServer(t, srv)
			c := dial(t, addr)

			id, _, err := c.AnonymizeTTL(42, testProfile(), "RGE", time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.GetRegion(id); err != nil {
				t.Fatalf("GetRegion before expiry: %v", err)
			}
			clock.Advance(2 * time.Minute)
			if _, _, err := c.GetRegion(id); err == nil ||
				!strings.Contains(err.Error(), "unknown region") {
				t.Errorf("GetRegion after expiry: %v, want unknown region", err)
			}
			if _, _, err := c.Reduce(id, "anyone", 0); err == nil {
				t.Error("Reduce after expiry succeeded")
			}

			// Negative and absurdly large TTLs are rejected at the protocol
			// level (the latter would overflow the expiry arithmetic).
			if _, _, err := c.AnonymizeTTL(42, testProfile(), "RGE", -time.Second); err == nil ||
				!strings.Contains(err.Error(), "ttl_ms") {
				t.Errorf("negative ttl error = %v", err)
			}
			if _, _, err := c.AnonymizeTTL(42, testProfile(), "RGE", 200*365*24*time.Hour); err == nil ||
				!strings.Contains(err.Error(), "ttl_ms") {
				t.Errorf("oversized ttl error = %v", err)
			}
		})
	}
}

// TestProtocolVersionNegotiation speaks raw NDJSON to pin the framing:
// the server echoes its major, accepts requests without a version, and
// rejects a future major without dropping the connection.
func TestProtocolVersionNegotiation(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)
	roundTrip := func(req map[string]any) map[string]any {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp map[string]any
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Current major: accepted, echoed back.
	resp := roundTrip(map[string]any{"op": "ping", "v": ProtocolMajor})
	if resp["ok"] != true {
		t.Fatalf("ping v=%d rejected: %v", ProtocolMajor, resp)
	}
	if got, ok := resp["v"].(float64); !ok || int(got) != ProtocolMajor {
		t.Errorf("response v = %v, want %d", resp["v"], ProtocolMajor)
	}

	// Legacy request without a version: still accepted.
	if resp := roundTrip(map[string]any{"op": "ping"}); resp["ok"] != true {
		t.Fatalf("unversioned ping rejected: %v", resp)
	}

	// Future major: rejected in-band, connection stays usable. (Major 2 is
	// the binary-framing upgrade, so the first unknown major is 3.)
	resp = roundTrip(map[string]any{"op": "ping", "v": ProtocolBinaryMajor + 1})
	if resp["ok"] != false {
		t.Fatalf("future-major ping accepted: %v", resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "unsupported protocol version") {
		t.Errorf("future-major error = %q", msg)
	}
	if resp := roundTrip(map[string]any{"op": "ping", "v": ProtocolMajor}); resp["ok"] != true {
		t.Fatalf("connection unusable after version rejection: %v", resp)
	}
}

// TestVersionedClientAgainstServer pins that the client stamps the major
// it negotiated: a JSON-pinned client stays on v1, the default (auto)
// client upgrades to the binary major against a current server.
func TestVersionedClientAgainstServer(t *testing.T) {
	_, addr, _ := startServer(t)

	cj, err := Dial(addr, WithCodec(CodecJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cj.Close() }()
	req := Request{Op: OpPing}
	if _, err := cj.roundTrip(&req); err != nil {
		t.Fatal(err)
	}
	if req.V != ProtocolMajor {
		t.Errorf("JSON client stamped v=%d, want %d", req.V, ProtocolMajor)
	}

	c := dial(t, addr) // default codec: auto-negotiates binary
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping from versioned client: %v", err)
	}
	req = Request{Op: OpPing}
	if _, err := c.roundTrip(&req); err != nil {
		t.Fatal(err)
	}
	if req.V != ProtocolBinaryMajor {
		t.Errorf("auto client stamped v=%d, want %d", req.V, ProtocolBinaryMajor)
	}
}
