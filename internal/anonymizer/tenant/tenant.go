// Package tenant is the anonymizer's trust boundary: authenticated
// principals, per-tenant capability grants, token-bucket rate limits and
// usage accounting. It maps the paper's per-requester trust-level model
// onto the wire — the data owner's access-control profile says which
// requester may recover which level of a region, and the tenants file
// says which *principal* may talk to which part of the service at all:
// who may register cloaks, who may reduce (and how far), who may
// deregister, and who may touch the operator plane (backups,
// replication, promotion).
//
// A Registry is loaded from a JSON tenants file and is hot-reloadable:
// Reload re-reads the file, Watch polls its modification time, and every
// authorization decision resolves the tenant by name against the CURRENT
// table — so revoking a tenant takes effect on the next operation of
// every already-open connection, not just new ones. Rate-limiter state
// and usage counters survive reloads.
package tenant

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reversecloak/reversecloak/internal/filewatch"
)

// Errors reported by the registry.
var (
	// ErrAuthFailed reports a failed authentication attempt (unknown
	// tenant, disabled tenant or bad token — deliberately not
	// distinguished on the wire).
	ErrAuthFailed = errors.New("tenant: authentication failed")
	// ErrBadConfig reports an invalid tenants file.
	ErrBadConfig = errors.New("tenant: bad config")
)

// Capability names one grantable right. The set is closed: the config
// loader rejects unknown capability strings so a typo in a tenants file
// fails loudly instead of silently granting nothing.
type Capability string

// The grantable capabilities.
const (
	// CapAnonymize covers the owner-side lifecycle: anonymize, touch,
	// set_trust.
	CapAnonymize Capability = "anonymize"
	// CapReduce covers requester-side disclosure: reduce and
	// request_keys. ReduceFloor bounds how fine it may go.
	CapReduce Capability = "reduce"
	// CapDeregister covers deregister.
	CapDeregister Capability = "deregister"
	// CapOperator covers the operator plane: backup and the repl_* ops.
	CapOperator Capability = "operator"
)

// validCaps is the closed capability set.
var validCaps = map[Capability]bool{
	CapAnonymize: true, CapReduce: true, CapDeregister: true, CapOperator: true,
}

// Class buckets operations for rate-limit weighting.
type Class string

// The op classes a tenants file may weight.
const (
	// ClassRead covers cheap lookups (get_region, request_keys,
	// repl_status).
	ClassRead Class = "read"
	// ClassWrite covers journaled mutations (anonymize, set_trust,
	// deregister, touch).
	ClassWrite Class = "write"
	// ClassReduce covers server-side reductions (CPU-heavy).
	ClassReduce Class = "reduce"
	// ClassOperator covers the operator plane (backup, repl_subscribe,
	// repl_promote); a replication follower's polls are backups.
	ClassOperator Class = "operator"
)

var validClasses = map[Class]bool{
	ClassRead: true, ClassWrite: true, ClassReduce: true, ClassOperator: true,
}

// Tenant is one principal's immutable grant, as loaded from the tenants
// file. Reloads build fresh Tenant values; a Tenant handed out by Lookup
// or Authenticate is a consistent snapshot and is never mutated.
type Tenant struct {
	// Name identifies the principal; connections authenticate as it and
	// usage is accounted to it.
	Name string
	// Token is the shared secret presented by the auth op.
	Token string
	// Caps is the granted capability set.
	Caps map[Capability]bool
	// ReduceFloor is the finest (lowest) privacy level the tenant may
	// reduce a region to; 0 grants full depth. A tenant with a floor > 0
	// must name an explicit target level at or above it, and may not
	// fetch raw keys (which would allow peeling below the floor
	// client-side).
	ReduceFloor int
	// Rate is the tenant's sustained budget in weighted ops per second;
	// 0 means unlimited. Burst is the bucket size (defaults to
	// max(1, Rate) when 0 in the file).
	Rate  float64
	Burst float64
	// Weights is the per-class cost of one op (default 1).
	Weights map[Class]float64
}

// Has reports whether the tenant holds the capability.
func (t *Tenant) Has(c Capability) bool { return t.Caps[c] }

// CapList returns the granted capabilities, sorted, for introspection
// (the auth response echoes it).
func (t *Tenant) CapList() []string {
	out := make([]string, 0, len(t.Caps))
	for c := range t.Caps {
		out = append(out, string(c))
	}
	sort.Strings(out)
	return out
}

// Weight returns the cost of one op of the class.
func (t *Tenant) Weight(c Class) float64 {
	if w, ok := t.Weights[c]; ok {
		return w
	}
	return 1
}

// configFile is the tenants file schema.
type configFile struct {
	Tenants []tenantConfig `json:"tenants"`
}

// tenantConfig is one tenant entry of the tenants file.
type tenantConfig struct {
	Name  string   `json:"name"`
	Token string   `json:"token"`
	Caps  []string `json:"capabilities"`
	// ReduceFloor is the finest level CapReduce may reach (0 = full
	// depth).
	ReduceFloor int `json:"reduce_floor,omitempty"`
	// Rate / Burst configure the token bucket (weighted ops/sec; 0 rate =
	// unlimited).
	Rate  float64 `json:"rate,omitempty"`
	Burst float64 `json:"burst,omitempty"`
	// Weights is the per-class op cost ("read", "write", "reduce",
	// "operator" — default 1 each).
	Weights map[string]float64 `json:"weights,omitempty"`
	// Disabled revokes the tenant without deleting its entry: existing
	// connections lose access on their next op.
	Disabled bool `json:"disabled,omitempty"`
}

// parseConfig validates the raw file into the name → Tenant table.
// Disabled tenants are dropped here — to the rest of the system a
// disabled tenant and a deleted one look identical.
func parseConfig(raw []byte) (map[string]*Tenant, error) {
	var cf configFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if len(cf.Tenants) == 0 {
		return nil, fmt.Errorf("%w: no tenants", ErrBadConfig)
	}
	out := make(map[string]*Tenant, len(cf.Tenants))
	for i, tc := range cf.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("%w: tenant %d has no name", ErrBadConfig, i)
		}
		if _, dup := out[tc.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate tenant %q", ErrBadConfig, tc.Name)
		}
		if tc.Token == "" && !tc.Disabled {
			return nil, fmt.Errorf("%w: tenant %q has no token", ErrBadConfig, tc.Name)
		}
		if tc.ReduceFloor < 0 {
			return nil, fmt.Errorf("%w: tenant %q: negative reduce_floor", ErrBadConfig, tc.Name)
		}
		if tc.Rate < 0 || tc.Burst < 0 {
			return nil, fmt.Errorf("%w: tenant %q: negative rate or burst", ErrBadConfig, tc.Name)
		}
		if tc.Disabled {
			continue
		}
		t := &Tenant{
			Name:        tc.Name,
			Token:       tc.Token,
			Caps:        make(map[Capability]bool, len(tc.Caps)),
			ReduceFloor: tc.ReduceFloor,
			Rate:        tc.Rate,
			Burst:       tc.Burst,
		}
		if t.Rate > 0 && t.Burst == 0 {
			t.Burst = t.Rate
			if t.Burst < 1 {
				t.Burst = 1
			}
		}
		for _, c := range tc.Caps {
			cap := Capability(strings.TrimSpace(c))
			if !validCaps[cap] {
				return nil, fmt.Errorf("%w: tenant %q: unknown capability %q",
					ErrBadConfig, tc.Name, c)
			}
			t.Caps[cap] = true
		}
		if len(tc.Weights) > 0 {
			t.Weights = make(map[Class]float64, len(tc.Weights))
			for cl, w := range tc.Weights {
				class := Class(strings.TrimSpace(cl))
				if !validClasses[class] {
					return nil, fmt.Errorf("%w: tenant %q: unknown op class %q",
						ErrBadConfig, tc.Name, cl)
				}
				if w < 0 {
					return nil, fmt.Errorf("%w: tenant %q: negative weight for %q",
						ErrBadConfig, tc.Name, cl)
				}
				t.Weights[class] = w
			}
		}
		out[tc.Name] = t
	}
	return out, nil
}

// state is the per-tenant mutable state that must SURVIVE reloads: the
// rate-limit bucket and the usage counters. It is keyed by tenant name
// and kept even when a reload drops the tenant, so a scrape after a
// revocation still sees the final counters.
type state struct {
	bucket bucket
	usage  Usage
}

// Registry is the live tenant table plus per-tenant runtime state. Safe
// for concurrent use.
type Registry struct {
	path string
	// file reloads the tenants file (Reload/Watch); nil for FromJSON.
	file *filewatch.File

	mu      sync.RWMutex
	tenants map[string]*Tenant

	stateMu sync.Mutex
	states  map[string]*state
}

// Load reads a tenants file into a fresh registry.
func Load(path string) (*Registry, error) {
	r := &Registry{path: path, states: make(map[string]*state)}
	r.file = filewatch.New(path, r.install)
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// FromJSON builds a registry from in-memory config bytes (tests,
// embedded fixtures). Reload and Watch are unavailable on it.
func FromJSON(raw []byte) (*Registry, error) {
	tenants, err := parseConfig(raw)
	if err != nil {
		return nil, err
	}
	return &Registry{tenants: tenants, states: make(map[string]*state)}, nil
}

// Reload re-reads the tenants file and swaps the table atomically. On
// error the previous table stays in force (a malformed edit must not
// lock every tenant out). Rate-limit buckets whose rate or burst changed
// are reset to the new burst; unchanged buckets keep their fill, and
// usage counters are always preserved.
func (r *Registry) Reload() error {
	if r.file == nil {
		return fmt.Errorf("%w: registry not backed by a file", ErrBadConfig)
	}
	return r.file.Load()
}

// install parses the tenants file's bytes and swaps the table in.
func (r *Registry) install(raw []byte) error {
	tenants, err := parseConfig(raw)
	if err != nil {
		return fmt.Errorf("tenant: %s: %w", r.path, err)
	}
	r.mu.Lock()
	old := r.tenants
	r.tenants = tenants
	r.mu.Unlock()
	// Reset buckets whose limits changed so the new policy applies from
	// a full burst rather than inheriting a stale debt or credit.
	r.stateMu.Lock()
	for name, t := range tenants {
		if o, ok := old[name]; ok && (o.Rate != t.Rate || o.Burst != t.Burst) {
			if s, ok := r.states[name]; ok {
				s.bucket.reset(t.Rate, t.Burst)
			}
		}
	}
	r.stateMu.Unlock()
	return nil
}

// Watch polls the tenants file's modification time every interval and
// reloads on change, logging the outcome through logf (which may be
// nil): a bad edit is logged once, not on every poll. Call Close to stop
// the watcher.
func (r *Registry) Watch(interval time.Duration, logf func(format string, args ...any)) {
	if r.file == nil {
		return
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r.file.Watch(interval, func(err error) {
		if err != nil {
			logf("tenants reload failed (previous table stays active): %v", err)
			return
		}
		logf("tenants reloaded from %s (%d tenants)", r.path, r.Len())
	})
}

// Close stops the Watch loop, if one is running.
func (r *Registry) Close() error {
	if r.file == nil {
		return nil
	}
	return r.file.Close()
}

// Len returns the number of active tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Authenticate checks a tenant's shared token and returns its current
// grant. The comparison is constant-time, and unknown tenant vs bad
// token is not distinguished.
func (r *Registry) Authenticate(name, token string) (*Tenant, error) {
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	if t == nil {
		// Burn a comparison anyway so a probe cannot time-split "unknown
		// tenant" from "bad token".
		subtle.ConstantTimeCompare([]byte(token), []byte("-"))
		return nil, ErrAuthFailed
	}
	if subtle.ConstantTimeCompare([]byte(token), []byte(t.Token)) != 1 {
		return nil, ErrAuthFailed
	}
	return t, nil
}

// Lookup resolves a tenant by name against the CURRENT table — the
// revocation point: principals stamped on long-lived connections are
// re-resolved here on every op, so a tenant deleted or disabled by a
// reload loses access immediately. Returns nil when the tenant is gone.
func (r *Registry) Lookup(name string) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[name]
}

// stateFor returns (creating on first use) the tenant's runtime state.
func (r *Registry) stateFor(name string) *state {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	s, ok := r.states[name]
	if !ok {
		s = &state{}
		r.states[name] = s
	}
	return s
}

// Allow charges cost weighted ops against the tenant's token bucket and
// reports whether the op may proceed. Tenants with Rate == 0 are
// unlimited. The rejection is NOT counted here — the caller records it
// via Account so the rejection carries its reason.
func (r *Registry) Allow(t *Tenant, cost float64) bool {
	if t.Rate <= 0 {
		return true
	}
	return r.stateFor(t.Name).bucket.take(t.Rate, t.Burst, cost, time.Now())
}

// Usage returns the tenant's usage counters (created on first use).
func (r *Registry) Usage(name string) *Usage {
	return &r.stateFor(name).usage
}

// TenantUsage is one tenant's usage snapshot.
type TenantUsage struct {
	Name string
	UsageStats
}

// UsageSnapshot renders every tenant's counters, sorted by name —
// including tenants since revoked, whose final counters remain
// scrapable.
func (r *Registry) UsageSnapshot() []TenantUsage {
	r.stateMu.Lock()
	out := make([]TenantUsage, 0, len(r.states))
	for name, s := range r.states {
		out = append(out, TenantUsage{Name: name, UsageStats: s.usage.Snapshot()})
	}
	r.stateMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
