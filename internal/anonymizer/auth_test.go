package anonymizer

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/anonymizer/tenant"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// authFixture grants the spread of profiles the tests exercise: a
// full-access tenant, a reduce-capped one and a tightly metered one.
const authFixture = `{
  "tenants": [
    {"name": "alpha", "token": "a-token", "capabilities": ["anonymize", "reduce", "deregister", "operator"]},
    {"name": "capped", "token": "c-token", "capabilities": ["reduce"], "reduce_floor": 2},
    {"name": "meter", "token": "m-token", "capabilities": ["anonymize"], "rate": 0.001, "burst": 2}
  ]
}`

// startTenantServer starts a tenant-enabled server over the given
// registry JSON.
func startTenantServer(t *testing.T, raw string, opts ...ServerOption) (*Server, string, *tenant.Registry) {
	t.Helper()
	reg, err := tenant.FromJSON([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, append(opts, WithTenants(reg))...)
	return srv, startTestServer(t, srv), reg
}

func TestAuthGate(t *testing.T) {
	_, addr, _ := startTenantServer(t, authFixture)
	c := dial(t, addr)

	// Ping is open; everything else demands authentication first.
	if err := c.Ping(); err != nil {
		t.Fatalf("unauthenticated ping: %v", err)
	}
	_, _, err := c.Anonymize(42, testProfile(), "RGE")
	if !errors.Is(err, ErrAuthRequired) {
		t.Fatalf("unauthenticated anonymize = %v, want ErrAuthRequired", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatal("trust-boundary rejections must still match ErrRemote")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeAuthRequired {
		t.Fatalf("want RemoteError code %q, got %#v", CodeAuthRequired, err)
	}

	if err := c.Auth("alpha", "bad-token"); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("bad token = %v, want ErrAuthFailed", err)
	}
	if err := c.Auth("alpha", "a-token"); err != nil {
		t.Fatalf("Auth: %v", err)
	}
	id, _, err := c.Anonymize(42, testProfile(), "RGE")
	if err != nil {
		t.Fatalf("authenticated anonymize: %v", err)
	}
	if err := c.Deregister(id); err != nil {
		t.Fatalf("authenticated deregister: %v", err)
	}
}

func TestCapabilityDenied(t *testing.T) {
	_, addr, _ := startTenantServer(t, authFixture)

	owner := dial(t, addr)
	if err := owner.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	prof := testProfile()
	prof.Levels = append(prof.Levels, prof.Levels[1]) // 3 levels
	prof.Levels[2].K = 20
	id, _, err := owner.Anonymize(42, prof, "RGE")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetTrust(id, "partner", 0); err != nil {
		t.Fatal(err)
	}

	capped := dial(t, addr)
	if err := capped.Auth("capped", "c-token"); err != nil {
		t.Fatal(err)
	}
	// Registering cloaks needs a capability the tenant lacks.
	if _, _, err := capped.Anonymize(42, testProfile(), "RGE"); !errors.Is(err, ErrDenied) {
		t.Fatalf("anonymize without the capability = %v, want ErrDenied", err)
	}
	// Reductions above the floor work; below it (or "as entitled", or raw
	// keys) are denied.
	if _, lv, err := capped.Reduce(id, "partner", 2); err != nil || lv != 2 {
		t.Fatalf("reduce at floor: level=%d err=%v", lv, err)
	}
	if _, _, err := capped.Reduce(id, "partner", 1); !errors.Is(err, ErrDenied) {
		t.Fatalf("reduce below floor = %v, want ErrDenied", err)
	}
	if _, _, err := capped.Reduce(id, "partner", 0); !errors.Is(err, ErrDenied) {
		t.Fatalf("reduce to entitled level = %v, want ErrDenied", err)
	}
	if _, err := capped.RequestKeys(id, "partner"); !errors.Is(err, ErrDenied) {
		t.Fatalf("request_keys for floored tenant = %v, want ErrDenied", err)
	}
	if _, err := capped.ReplStatus(); !errors.Is(err, ErrDenied) {
		t.Fatalf("operator op = %v, want ErrDenied", err)
	}
}

func TestThrottle(t *testing.T) {
	_, addr, reg := startTenantServer(t, authFixture)
	c := dial(t, addr)
	if err := c.Auth("meter", "m-token"); err != nil {
		t.Fatal(err)
	}
	// burst 2 at ~zero refill: exactly two charged ops pass.
	throttled := 0
	for i := 0; i < 4; i++ {
		_, _, err := c.GetRegion("r-none")
		if errors.Is(err, ErrThrottled) {
			throttled++
		} else if !errors.Is(err, ErrRemote) {
			t.Fatalf("GetRegion: %v", err)
		}
	}
	if throttled != 2 {
		t.Fatalf("throttled %d of 4, want 2 (burst 2)", throttled)
	}
	// Liveness is never charged.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping while throttled: %v", err)
	}
	snap := reg.UsageSnapshot()
	for _, u := range snap {
		if u.Name == "meter" {
			if u.Ops != 2 || u.Throttled != 2 {
				t.Fatalf("meter usage %+v, want ops=2 throttled=2", u)
			}
			return
		}
	}
	t.Fatal("meter missing from usage snapshot")
}

// TestHotReloadRevokesLiveConnection pins the revocation path: an
// authenticated, in-flight connection loses access on its next op after
// the tenants file drops its tenant — no reconnect required.
func TestHotReloadRevokesLiveConnection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(authFixture), 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reg.Close() }()
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, WithTenants(reg))
	addr := startTestServer(t, srv)

	c := dial(t, addr)
	if err := c.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Anonymize(42, testProfile(), "RGE"); err != nil {
		t.Fatal(err)
	}

	// Revoke alpha and reload. The SAME connection's next op must fail.
	next := strings.Replace(authFixture, `"token": "a-token",`,
		`"token": "a-token", "disabled": true,`, 1)
	if err := os.WriteFile(path, []byte(next), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Anonymize(43, testProfile(), "RGE")
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("post-revocation op = %v, want ErrAuthFailed", err)
	}
	// And re-authenticating is refused too.
	if err := c.Auth("alpha", "a-token"); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("re-auth after revocation = %v, want ErrAuthFailed", err)
	}
}

// TestQuotaAccountingRace drives one metered tenant from several
// connections concurrently (run with -race): the shared bucket and the
// usage counters stay consistent.
func TestQuotaAccountingRace(t *testing.T) {
	_, addr, reg := startTenantServer(t, `{
	  "tenants": [{"name": "hot", "token": "h-token", "capabilities": ["anonymize"], "rate": 0.001, "burst": 40}]
	}`)
	const conns = 4
	const perConn = 30
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		c := dial(t, addr)
		if err := c.Auth("hot", "h-token"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for j := 0; j < perConn; j++ {
				_, _, err := c.GetRegion("r-none")
				if err != nil && !errors.Is(err, ErrRemote) {
					t.Errorf("GetRegion: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, u := range reg.UsageSnapshot() {
		if u.Name != "hot" {
			continue
		}
		if u.Ops+u.Throttled != conns*perConn {
			t.Fatalf("accounting lost ops: ops=%d throttled=%d, want sum %d",
				u.Ops, u.Throttled, conns*perConn)
		}
		if u.Ops < 40 || u.Ops > 41 {
			t.Fatalf("admitted %d ops, want the 40-token burst", u.Ops)
		}
		return
	}
	t.Fatal("hot missing from usage snapshot")
}

// TestAuthBeforePipelinedRequests sends auth and a burst of requests in
// one pipelined write: every request decoded after the auth must see
// the principal, whether a worker runs it or the reader answers it
// itself (a cache-hit reduce).
func TestAuthBeforePipelinedRequests(t *testing.T) {
	srv, addr, _ := startTenantServer(t, authFixture, WithReduceCacheBytes(-1))
	c := dial(t, addr)
	if err := c.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ids := make([]string, 16)
	errs := make([]error, len(ids))
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], _, errs[i] = c.Anonymize(roadnet.SegmentID(i), testProfile(), "RGE")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipelined request %d after auth: %v", i, err)
		}
	}

	if err := c.SetTrust(ids[0], "partner", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Reduce(ids[0], "partner", 0); err != nil {
		t.Fatal(err) // caches the peel
	}
	before, _ := srv.ReduceCacheStats()
	conn, br := rawJSON(t, addr)
	writeLines(t, conn,
		Request{Op: OpAuth, Tenant: "alpha", Token: "a-token"},
		Request{Op: OpReduce, RegionID: ids[0], Requester: "partner"})
	if resp := readLine(t, br, "auth"); !resp.OK {
		t.Fatalf("auth: %s", resp.Error)
	}
	if resp := readLine(t, br, "reduce behind the auth"); !resp.OK || resp.Level == nil || *resp.Level != 0 {
		t.Fatalf("cache-hit reduce behind the auth answered ok=%v code=%q %s", resp.OK, resp.Code, resp.Error)
	}
	if after, _ := srv.ReduceCacheStats(); after.RegionHits != before.RegionHits+1 {
		t.Fatalf("region hits %d -> %d: the reduce was not a cache hit", before.RegionHits, after.RegionHits)
	}
}

// TestCacheHitsPassTheTrustBoundary pins that a cache hit the reader
// answers itself passes the gates a worker-run request passes: a floored
// tenant's below-floor hit is denied and an over-quota hit throttled,
// with the codes and counters those rejections always had, and neither
// reaches the cache.
func TestCacheHitsPassTheTrustBoundary(t *testing.T) {
	srv, addr, reg := startTenantServer(t, `{
	  "tenants": [
	    {"name": "alpha", "token": "a-token", "capabilities": ["anonymize", "reduce"]},
	    {"name": "capped", "token": "c-token", "capabilities": ["reduce"], "reduce_floor": 1},
	    {"name": "meter", "token": "m-token", "capabilities": ["reduce"], "rate": 0.001, "burst": 1}
	  ]
	}`, WithReduceCacheBytes(-1))
	owner := dial(t, addr)
	if err := owner.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	id, _, err := owner.Anonymize(42, testProfile(), "RGE")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetTrust(id, "partner", 0); err != nil {
		t.Fatal(err)
	}
	for _, lv := range []int{0, 1} {
		if _, _, err := owner.Reduce(id, "partner", lv); err != nil {
			t.Fatal(err) // caches both peels
		}
	}
	before := scrape(t, srv)
	cacheBefore, _ := srv.ReduceCacheStats()

	code := func(err error) string {
		var re *RemoteError
		if errors.As(err, &re) {
			return re.Code
		}
		return ""
	}
	capped := dial(t, addr)
	if err := capped.Auth("capped", "c-token"); err != nil {
		t.Fatal(err)
	}
	if _, lv, err := capped.Reduce(id, "partner", 1); err != nil || lv != 1 {
		t.Fatalf("hit at the floor: level=%d err=%v", lv, err)
	}
	if _, _, err := capped.Reduce(id, "partner", 0); code(err) != CodeDenied {
		t.Fatalf("hit below the floor = %v, want code %q", err, CodeDenied)
	}
	meter := dial(t, addr)
	if err := meter.Auth("meter", "m-token"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := meter.Reduce(id, "partner", 1); err != nil {
		t.Fatalf("hit within the burst: %v", err)
	}
	if _, _, err := meter.Reduce(id, "partner", 1); code(err) != CodeThrottled {
		t.Fatalf("hit over quota = %v, want code %q", err, CodeThrottled)
	}

	after := scrape(t, srv)
	for series, want := range map[string]uint64{
		"anonymizer_denied_total":    1,
		"anonymizer_throttled_total": 1,
		// The denial is a dispatched reduce answered ok=false; the
		// throttled request never reached dispatch.
		`anonymizer_op_duration_seconds_count{op="reduce"}`: 3,
		`anonymizer_op_errors_total{op="reduce"}`:           1,
	} {
		if got := after[series] - before[series]; got != want {
			t.Errorf("%s grew by %d, want %d", series, got, want)
		}
	}
	if cacheAfter, _ := srv.ReduceCacheStats(); cacheAfter.RegionHits-cacheBefore.RegionHits != 2 {
		t.Errorf("region hits grew by %d, want the 2 admitted reduces", cacheAfter.RegionHits-cacheBefore.RegionHits)
	}
	for _, u := range reg.UsageSnapshot() {
		switch u.Name {
		case "capped":
			if u.Ops != 2 || u.Denied != 1 || u.Throttled != 0 {
				t.Errorf("capped usage %+v, want ops=2 denied=1", u)
			}
		case "meter":
			if u.Ops != 1 || u.Denied != 0 || u.Throttled != 1 {
				t.Errorf("meter usage %+v, want ops=1 throttled=1", u)
			}
		}
	}
}

func TestAuthOpDisabledWithoutRegistry(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	err := c.Auth("alpha", "a-token")
	if err == nil || !errors.Is(err, ErrRemote) {
		t.Fatalf("auth on an open server = %v, want remote bad-op", err)
	}
	// And everything keeps working unauthenticated.
	if _, _, err := c.Anonymize(42, testProfile(), "RGE"); err != nil {
		t.Fatalf("open server refused an op: %v", err)
	}
}

// TestAdminHandler smoke-tests the observability plane: health and
// readiness probes and the Prometheus exposition's key series.
func TestAdminHandler(t *testing.T) {
	srv, addr, _ := startTenantServer(t, authFixture,
		WithStore(mustDurable(t)))
	c := dial(t, addr)
	if err := c.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Anonymize(42, testProfile(), "RGE"); err != nil {
		t.Fatal(err)
	}

	h := srv.AdminHandler(AdminConfig{})
	get := func(path string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, series := range []string{
		"anonymizer_connections_open",
		"anonymizer_registrations 1",
		`anonymizer_op_duration_seconds_bucket{op="anonymize"`,
		`anonymizer_op_duration_seconds_count{op="anonymize"} 1`,
		`anonymizer_tenant_ops_total{tenant="alpha"}`,
		"anonymizer_wal_records_total 1",
		"anonymizer_wal_fsyncs_total",
		"anonymizer_wal_group_commit_last_cohort",
		"anonymizer_wal_log_bytes",
		"anonymizer_wal_log_segments 1",
		`anonymizer_wal_fsync_duration_seconds_bucket{le="+Inf"}`,
		"anonymizer_wal_fsync_duration_seconds_count",
		"anonymizer_stream_watermark_sum 1", // the last LSN: one register record
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// Every tracked op exposes its error counter unconditionally.
	for _, op := range sortedOps() {
		if !strings.Contains(body, `anonymizer_op_errors_total{op="`+op+`"}`) {
			t.Errorf("/metrics missing error counter for op %q", op)
		}
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}

	// A closed server flips both probes.
	_ = srv.Close()
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz after close = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after close = %d", code)
	}
}

// mustDurable opens a throwaway durable store.
func mustDurable(t *testing.T) *DurableStore {
	t.Helper()
	return openDurable(t, t.TempDir())
}
