package anonymizer

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// The store's reference model, the one seeded op stream that drives it,
// and the one comparison against it. The model is a map and a clock,
// written from the store's doc comments and PROTOCOL.md, not from
// regTable. A conformance scenario runs the stream on a target and the
// model, requires the same outcome op by op, and holds what it made of
// the store (a restore, a follower, a delta) to the model with
// requireModel. Every failure names the seed and the op.

// modelReg is one registration as the model holds it. reductions, for an
// engine-made region only, is the region reduced to each level 0..levels
// by the engine's search; sealed, whether the registration carries its
// sealed levels (every engine-made one does).
type modelReg struct {
	region     string
	keys       []string
	def        int
	grants     map[string]int
	expiresAt  int64 // unix ns; 0: no bound
	reductions []string
	sealed     bool
}

// model is the reference store: registrations, a clock and the store's
// default TTL.
type model struct {
	clk  *fakeClock
	ttl  time.Duration
	regs map[string]*modelReg
}

// live resolves id as Lookup does: expiry is lazy, so an elapsed lease is
// unknown before any sweep removes it.
func (m *model) live(id string) (*modelReg, error) {
	r, ok := m.regs[id]
	if !ok || (r.expiresAt != 0 && r.expiresAt <= m.clk.Now().UnixNano()) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRegion, id)
	}
	return r, nil
}

// expiry ends a lease of ttl taken now: ttl <= 0 selects the default TTL,
// and with none the bound is cleared.
func (m *model) expiry(ttl time.Duration) int64 {
	if ttl <= 0 {
		ttl = m.ttl
	}
	if ttl <= 0 {
		return 0
	}
	return m.clk.Now().Add(ttl).UnixNano()
}

func (m *model) setTrust(id, requester string, toLevel int) error {
	r, err := m.live(id)
	if err != nil {
		return err
	}
	if toLevel < 0 || toLevel > len(r.keys) {
		return fmt.Errorf("%w: level %d of %d", accessctl.ErrBadLevel, toLevel, len(r.keys))
	}
	r.grants[requester] = toLevel
	return nil
}

func (m *model) deregister(id string) error {
	if _, err := m.live(id); err != nil {
		return err
	}
	delete(m.regs, id)
	return nil
}

// touch replaces a live lease, shorter or longer, and returns its end.
func (m *model) touch(id string, ttl time.Duration) (int64, error) {
	r, err := m.live(id)
	if err != nil {
		return 0, err
	}
	r.expiresAt = m.expiry(ttl)
	return r.expiresAt, nil
}

func (m *model) sweep() {
	for id := range m.regs {
		if _, err := m.live(id); err != nil {
			delete(m.regs, id)
		}
	}
}

// draw is one drawn registration.
type draw struct {
	levels  int
	engine  bool // cut by the engine for user; fake when it cannot
	user    roadnet.SegmentID
	derived bool // keys derived from the harness keyring
	ttl     time.Duration
}

// target is a surface the stream runs on. register stores a drawn
// registration and returns its ID and what was stored, from which the
// model records what it cannot know in advance (keys a server drew).
type target interface {
	register(h *harness, d *draw) (string, *Registration)
	SetTrust(id, requester string, toLevel int) error
	Deregister(id string) error
	Touch(id string, ttl time.Duration) (time.Time, error)
	SweepExpired() (int, error)
}

// storeTarget runs the stream on a store.
type storeTarget struct{ *DurableStore }

func (s storeTarget) register(h *harness, d *draw) (string, *Registration) {
	reg := h.build(d, s.DurableStore)
	id, err := s.Register(reg)
	h.must(err)
	return id, reg
}

// harness runs one seeded op stream on a target and on the model.
type harness struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	m      model
	engine *cloak.Engine
	// kr, when set, derives the keys of about half the registrations;
	// material registers those as key material instead of references.
	kr       *keys.Keyring
	material bool
	ids      []string // every ID issued
	ops      int
}

// requesters are the principals the stream grants levels to.
var requesters = []string{"alice", "bob", "carol", "reader"}

// newHarness starts a stream on seed. Odd seeds give the store a default
// TTL, which Register stamps and Touch(id, 0) selects; on even seeds
// Touch(id, 0) clears the bound.
func newHarness(t *testing.T, seed int64) *harness {
	g, density := testGrid(t)
	engine, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), engine: engine,
		m: model{clk: newFakeClock(), regs: map[string]*modelReg{}}}
	if seed%2 == 1 {
		h.m.ttl = 90 * time.Second
	}
	return h
}

// opts are what every store of the stream opens with: the model's clock
// and default TTL, and sweeps only when the stream sweeps.
func (h *harness) opts(more ...DurabilityOption) []DurabilityOption {
	return append([]DurabilityOption{WithClock(h.m.clk.Now), WithTTL(h.m.ttl), WithGCInterval(0)}, more...)
}

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d, op %d: %s", h.seed, h.ops, fmt.Sprintf(format, args...))
}

func (h *harness) must(err error) {
	h.t.Helper()
	if err != nil {
		h.fatalf("%v", err)
	}
}

// run runs n ops: registrations, set_trust (unknown IDs and bad levels
// included), deregister, touch (shortening leases, lengthening them, and
// ttl 0), clock advances and sweeps.
func (h *harness) run(tgt target, n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		h.ops++
		id := "r999999" // never issued
		if len(h.ids) > 0 && h.rng.Intn(10) > 0 {
			id = h.ids[h.rng.Intn(len(h.ids))]
		}
		switch k := h.rng.Intn(10); {
		case len(h.ids) < 4 || k < 2:
			h.register(tgt)
		case k < 5:
			who, lv := requesters[h.rng.Intn(len(requesters))], h.rng.Intn(5)-1
			h.expect(fmt.Sprintf("set_trust %s %s=%d", id, who, lv), tgt.SetTrust(id, who, lv), h.m.setTrust(id, who, lv))
		case k == 5:
			h.expect("deregister "+id, tgt.Deregister(id), h.m.deregister(id))
		case k < 8:
			var ttl time.Duration
			if h.rng.Intn(4) > 0 {
				ttl = time.Duration(1+h.rng.Intn(120)) * time.Second
			}
			end, err := tgt.Touch(id, ttl)
			want, werr := h.m.touch(id, ttl)
			h.expect(fmt.Sprintf("touch %s %v", id, ttl), err, werr)
			// The wire carries whole milliseconds; the zero time is no bound.
			if err == nil && (end.IsZero() != (want == 0) || want != 0 && end.UnixMilli() != want/int64(time.Millisecond)) {
				h.fatalf("touch %s %v: lease ends %v, model %v", id, ttl, end, time.Unix(0, want))
			}
		case k == 8:
			h.m.clk.Advance(time.Duration(1+h.rng.Intn(20)) * time.Second)
		default:
			h.sweep(tgt)
		}
	}
}

// register draws a registration (1-3 levels; engine-made or fake; stored
// or derived keys; no lease of its own, a short one or an hour), stores
// it on tgt and records it.
func (h *harness) register(tgt target) {
	d := &draw{
		levels: 1 + h.rng.Intn(3), engine: h.rng.Intn(3) == 0,
		user: roadnet.SegmentID(10 + h.rng.Intn(150)), derived: h.kr != nil && h.rng.Intn(2) == 0,
	}
	d.ttl = []time.Duration{0, time.Duration(1+h.rng.Intn(40)) * time.Second, time.Hour}[h.rng.Intn(3)]
	id, reg := tgt.register(h, d)
	ks, err := reg.keys()
	h.must(err)
	r := &modelReg{region: h.encode(reg.region), keys: ks.EncodeHex(), def: d.levels,
		grants: map[string]int{}, expiresAt: h.m.expiry(d.ttl), sealed: d.engine}
	if reg.Sealed() != d.engine {
		h.fatalf("register %s: sealed %v for an engine-made region %v", id, reg.Sealed(), d.engine)
	}
	for lv := 0; d.engine && lv <= d.levels; lv++ {
		reduced := reg.region
		if lv < d.levels {
			grant, err := ks.Grant(lv)
			h.must(err)
			reduced, err = h.engine.Deanonymize(reg.region, grant, lv)
			h.must(err)
		}
		r.reductions = append(r.reductions, h.encode(reduced))
	}
	h.m.regs[id] = r
	h.ids = append(h.ids, id)
}

// build makes a drawn registration for st to store. Derived keys are
// derived for the ID st issues next: allocated up front for a key
// reference, drawn by Register for key material. An engine-made region
// carries its sealed levels, as the server's anonymize makes them.
func (h *harness) build(d *draw, st *DurableStore) *Registration {
	policy, err := accessctl.NewPolicy(d.levels, d.levels)
	h.must(err)
	ks, err := keys.AutoGenerate(d.levels)
	id := fmt.Sprintf("r%d", st.nextID.Load()+1)
	if d.derived {
		ks, err = h.kr.DeriveSet(h.kr.ActiveEpoch(), id, d.levels)
	}
	h.must(err)
	region := fakeRegistration(h.t, d.levels).region
	var sealed []byte
	if d.engine {
		cut, tr, err := h.engine.Anonymize(cloak.Request{UserSegment: d.user, Profile: profile.Profile{Levels: cacheTestProfile().Levels[:d.levels]}, Keys: ks.All()})
		if d.engine = err == nil; d.engine {
			region = cut
			sealed, err = sealLevels(cut, tr, ks.All())
			h.must(err)
		}
	}
	reg := NewRegistration(region, ks, policy)
	if d.derived && !h.material {
		st.AllocateID()
		reg = NewDerivedRegistration(region, h.kr, h.kr.ActiveEpoch(), id, d.levels, policy)
	}
	reg.sealed = sealed
	if d.ttl > 0 {
		reg.SetExpiry(h.m.clk.Now().Add(d.ttl))
	}
	return reg
}

// sweep reclaims every elapsed lease on the target and in the model.
func (h *harness) sweep(tgt target) {
	h.t.Helper()
	_, err := tgt.SweepExpired()
	h.must(err)
	h.m.sweep()
}

// expect fails unless a target's outcome is the model's: both succeed,
// or both fail with the same class of error.
func (h *harness) expect(label string, got, want error) {
	h.t.Helper()
	if errClass(got) != errClass(want) {
		h.fatalf("%s: target %v, model %v", label, got, want)
	}
}

// errClass names an outcome by the sentinel its error wraps, told by its
// text: a remote error carries only the server's message.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, sentinel := range []error{ErrUnknownRegion, accessctl.ErrBadLevel} {
		if strings.Contains(err.Error(), sentinel.Error()) {
			return sentinel.Error()
		}
	}
	return err.Error()
}

// requireModel fails unless st holds the model: every ID ever issued
// resolves, or fails to, as in the model, with the same region bytes,
// keys, default level, grants, expiry and sealed levels; an engine-made
// region reduces to the model's bytes at every level by opening its
// sealed levels, never by search; and Len is the model's. Len counts
// expired entries until an expire record removes them, so the caller
// sweeps the leader first (opening a store removes nothing).
func (h *harness) requireModel(label string, st *DurableStore) {
	h.t.Helper()
	for _, id := range h.ids {
		want, werr := h.m.live(id)
		reg, err := st.Lookup(id)
		h.expect(label+": lookup "+id, err, werr)
		if err != nil {
			continue
		}
		ks, err := reg.keys()
		h.must(err)
		got := &modelReg{region: h.encode(reg.region), keys: ks.EncodeHex(), def: reg.DefaultLevel(),
			grants: reg.Grants(), expiresAt: reg.expiresAt, sealed: reg.Sealed()}
		for lv := 0; want.reductions != nil && lv <= reg.Levels(); lv++ {
			reduced, path, err := reg.reduce(h.engine, lv)
			h.must(err)
			if got.sealed && lv < reg.Levels() && path != peelSealed {
				h.fatalf("%s: %s reduced to level %d by search, not by its sealed levels", label, id, lv)
			}
			got.reductions = append(got.reductions, h.encode(reduced))
		}
		if !reflect.DeepEqual(got, want) {
			h.fatalf("%s: %s diverged from the model:\n store %+v\n model %+v", label, id, got, want)
		}
	}
	if got, want := st.Len(), len(h.m.regs); got != want {
		h.fatalf("%s: Len = %d, model %d", label, got, want)
	}
}

func (h *harness) encode(v any) string {
	raw, err := json.Marshal(v)
	h.must(err)
	return string(raw)
}
