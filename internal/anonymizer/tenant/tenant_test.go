package tenant

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fixture is a minimal valid tenants file.
const fixture = `{
  "tenants": [
    {"name": "alpha", "token": "a-token", "capabilities": ["anonymize", "reduce", "deregister", "operator"]},
    {"name": "beta", "token": "b-token", "capabilities": ["reduce"], "reduce_floor": 2,
     "rate": 10, "burst": 3, "weights": {"reduce": 2}},
    {"name": "ghost", "token": "g-token", "capabilities": ["anonymize"], "disabled": true}
  ]
}`

func mustRegistry(t *testing.T, raw string) *Registry {
	t.Helper()
	r, err := FromJSON([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseConfig(t *testing.T) {
	r := mustRegistry(t, fixture)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (disabled tenant dropped)", r.Len())
	}
	alpha := r.Lookup("alpha")
	if alpha == nil || !alpha.Has(CapOperator) || alpha.Rate != 0 {
		t.Fatalf("alpha grant wrong: %+v", alpha)
	}
	beta := r.Lookup("beta")
	if beta == nil || beta.ReduceFloor != 2 || beta.Burst != 3 {
		t.Fatalf("beta grant wrong: %+v", beta)
	}
	if w := beta.Weight(ClassReduce); w != 2 {
		t.Errorf("beta reduce weight = %v, want 2", w)
	}
	if w := beta.Weight(ClassWrite); w != 1 {
		t.Errorf("beta write weight = %v, want default 1", w)
	}
	if got := beta.CapList(); len(got) != 1 || got[0] != "reduce" {
		t.Errorf("beta CapList = %v", got)
	}
	if r.Lookup("ghost") != nil {
		t.Error("disabled tenant must not resolve")
	}
}

func TestParseConfigRejects(t *testing.T) {
	bad := []string{
		`{`,              // not JSON
		`{"tenants":[]}`, // empty
		`{"tenants":[{"name":"","token":"x"}]}`,
		`{"tenants":[{"name":"a","token":""}]}`, // no token, not disabled
		`{"tenants":[{"name":"a","token":"x"},{"name":"a","token":"y"}]}`,
		`{"tenants":[{"name":"a","token":"x","capabilities":["fly"]}]}`,
		`{"tenants":[{"name":"a","token":"x","reduce_floor":-1}]}`,
		`{"tenants":[{"name":"a","token":"x","rate":-2}]}`,
		`{"tenants":[{"name":"a","token":"x","weights":{"warp":1}}]}`,
		`{"tenants":[{"name":"a","token":"x","weights":{"read":-1}}]}`,
	}
	for _, raw := range bad {
		if _, err := FromJSON([]byte(raw)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("FromJSON(%s) = %v, want ErrBadConfig", raw, err)
		}
	}
}

func TestBurstDefault(t *testing.T) {
	r := mustRegistry(t, `{"tenants":[{"name":"a","token":"x","rate":0.5}]}`)
	if b := r.Lookup("a").Burst; b != 1 {
		t.Fatalf("burst = %v, want max(1, rate)", b)
	}
}

func TestAuthenticate(t *testing.T) {
	r := mustRegistry(t, fixture)
	if tn, err := r.Authenticate("alpha", "a-token"); err != nil || tn.Name != "alpha" {
		t.Fatalf("Authenticate(alpha) = %v, %v", tn, err)
	}
	for _, c := range [][2]string{
		{"alpha", "wrong"}, {"nobody", "a-token"}, {"ghost", "g-token"}, {"", ""},
	} {
		if _, err := r.Authenticate(c[0], c[1]); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("Authenticate(%q, %q) = %v, want ErrAuthFailed", c[0], c[1], err)
		}
	}
}

func TestBucket(t *testing.T) {
	var b bucket
	now := time.Unix(1000, 0)
	// burst 2: two unit takes pass, the third is rejected and spends
	// nothing.
	for i := 0; i < 2; i++ {
		if !b.take(1, 2, 1, now) {
			t.Fatalf("take %d rejected within burst", i)
		}
	}
	if b.take(1, 2, 1, now) {
		t.Fatal("take beyond burst allowed")
	}
	// Half a second refills half a token — still not enough; a full
	// second refills the unit.
	if b.take(1, 2, 1, now.Add(500*time.Millisecond)) {
		t.Fatal("take allowed before refill")
	}
	if !b.take(1, 2, 1, now.Add(1500*time.Millisecond)) {
		t.Fatal("take rejected after refill")
	}
	// The fill caps at burst no matter how long the idle gap.
	if !b.take(1, 2, 2, now.Add(100*time.Second)) {
		t.Fatal("burst-sized take rejected after long idle")
	}
	if b.take(1, 2, 1, now.Add(100*time.Second)) {
		t.Fatal("bucket exceeded burst cap")
	}
}

func TestAllowUnlimited(t *testing.T) {
	r := mustRegistry(t, fixture)
	alpha := r.Lookup("alpha")
	for i := 0; i < 10000; i++ {
		if !r.Allow(alpha, 1) {
			t.Fatal("rate 0 must be unlimited")
		}
	}
}

// TestReload exercises the hot-reload contract: a revoked tenant stops
// resolving, a bad file keeps the previous table, changed limits reset
// the bucket, and usage counters survive everything.
func TestReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	write := func(raw string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(raw), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	write(fixture)
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	for i := 0; i < 7; i++ {
		r.Usage("beta").Op()
	}

	// Drain beta's bucket so the reload-reset is observable.
	beta := r.Lookup("beta")
	for r.Allow(beta, 1) {
	}

	// A malformed edit must keep the previous table in force.
	write(`{"tenants":[`)
	if err := r.Reload(); err == nil {
		t.Fatal("Reload of malformed file must fail")
	}
	if r.Lookup("alpha") == nil {
		t.Fatal("previous table must survive a failed reload")
	}

	// Revoke alpha, bump beta's burst: alpha stops resolving at once and
	// beta's bucket restarts from the new burst.
	write(`{"tenants":[
	  {"name": "beta", "token": "b-token", "capabilities": ["reduce"], "rate": 10, "burst": 5}
	]}`)
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if r.Lookup("alpha") != nil {
		t.Fatal("revoked tenant must not resolve after reload")
	}
	if _, err := r.Authenticate("alpha", "a-token"); !errors.Is(err, ErrAuthFailed) {
		t.Fatal("revoked tenant must not authenticate")
	}
	beta = r.Lookup("beta")
	allowed := 0
	for r.Allow(beta, 1) {
		allowed++
	}
	if allowed < 4 {
		t.Fatalf("bucket not reset to new burst: only %d takes allowed", allowed)
	}
	// Usage survives the reload, and the revoked tenant stays scrapable.
	snap := r.UsageSnapshot()
	found := false
	for _, u := range snap {
		if u.Name == "beta" && u.Ops == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("beta usage lost across reload: %+v", snap)
	}
}

// TestWatch covers the mtime poller: an edited file reloads, and Close
// stops the loop.
func TestWatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(fixture), 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Watch(5*time.Millisecond, nil)
	defer func() { _ = r.Close() }()

	next := `{"tenants":[{"name":"solo","token":"s-token","capabilities":["anonymize"]}]}`
	if err := os.WriteFile(path, []byte(next), 0o600); err != nil {
		t.Fatal(err)
	}
	// mtime granularity can swallow a same-instant rewrite; nudge it.
	if err := os.Chtimes(path, time.Now(), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Lookup("solo") == nil {
		if time.Now().After(deadline) {
			t.Fatal("watch did not pick up the edit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAccounting hammers one limited tenant from many
// goroutines (run with -race): the bucket never over-admits beyond
// burst + refill, and the usage counters agree with the admissions.
func TestConcurrentAccounting(t *testing.T) {
	r := mustRegistry(t, `{"tenants":[
	  {"name": "hot", "token": "h-token", "capabilities": ["anonymize"], "rate": 0.001, "burst": 50}
	]}`)
	hot := r.Lookup("hot")
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, rejected := 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if r.Allow(hot, 1) {
					r.Usage("hot").Op()
					mu.Lock()
					admitted++
					mu.Unlock()
				} else {
					r.Usage("hot").Throttled()
					mu.Lock()
					rejected++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if admitted+rejected != workers*perWorker {
		t.Fatalf("lost takes: %d + %d != %d", admitted, rejected, workers*perWorker)
	}
	// burst 50 plus sub-second refill at 0.001/s: 50 or 51 admissions.
	if admitted < 50 || admitted > 51 {
		t.Fatalf("admitted %d, want the 50-token burst", admitted)
	}
	snap := r.UsageSnapshot()
	if len(snap) != 1 || snap[0].Ops != int64(admitted) || snap[0].Throttled != int64(rejected) {
		t.Fatalf("usage snapshot %+v disagrees with admitted=%d rejected=%d",
			snap, admitted, rejected)
	}
}
