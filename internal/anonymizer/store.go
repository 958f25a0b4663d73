package anonymizer

import (
	"fmt"
	"sync"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/temporal"
)

// Registration holds the server-side secret state of one cloaked location:
// the published region, the per-level keys that make it reversible, and
// the owner's access-control policy. The fields never leave the server; a
// Registration crosses package boundaries only as an opaque handle.
type Registration struct {
	region *cloak.CloakedRegion
	// keySet holds stored key material (schema v2 and earlier, plus
	// registrations built by embedders/benchmarks). Derived registrations
	// leave it nil and carry a key reference instead: the keyring, the
	// master-key epoch and level count that re-derive the per-level keys
	// from the registration's ID on demand. Exactly one of the two forms
	// is populated.
	keySet *keys.Set
	// Key reference (derived registrations only).
	keyring   *keys.Keyring
	keyEpoch  uint32
	keyID     string
	keyLevels int
	// sealed holds, level by level, which members each level added,
	// sealed under a key only that level's key derives (seal.go): a
	// reduce opens the levels it peels instead of searching for them.
	// Nil when the registration was made without the engine's trace
	// (older logs, NewRegistration callers); those reduce by search.
	sealed []byte
	policy *accessctl.Policy
	// expiresAt is the registration's expiry instant in unix nanoseconds;
	// 0 means the registration lives until deregistered. Expiry ends the
	// region's recoverability exactly like a deregistration — the
	// reversibility contract is time-bounded when a TTL is set.
	expiresAt int64
}

// NewDerivedRegistration assembles a registration whose per-level keys
// are re-derived from kr on demand rather than stored: the durable record
// for it carries only (id, epoch, levels) and no key material. The caller
// must have cut the region with kr.DeriveSet(epoch, id, levels) — the
// store trusts the reference, it cannot check the region against it.
func NewDerivedRegistration(
	region *cloak.CloakedRegion,
	kr *keys.Keyring, epoch uint32, id string, levels int,
	policy *accessctl.Policy,
) *Registration {
	return &Registration{
		region: region, keyring: kr, keyEpoch: epoch, keyID: id,
		keyLevels: levels, policy: policy,
	}
}

// derived reports whether the registration resolves keys through a
// keyring reference instead of stored material.
func (r *Registration) derived() bool { return r.keySet == nil }

// KeyEpoch returns the master-key epoch a derived registration was cut
// under, or 0 for stored-key registrations.
func (r *Registration) KeyEpoch() uint32 {
	if r.derived() {
		return r.keyEpoch
	}
	return 0
}

// keys resolves the registration's per-level key set: stored material
// as-is, or a fresh derivation through the key reference.
func (r *Registration) keys() (*keys.Set, error) {
	if !r.derived() {
		return r.keySet, nil
	}
	if r.keyring == nil {
		return nil, fmt.Errorf("anonymizer: registration %q has no keyring to derive from", r.keyID)
	}
	return r.keyring.DeriveSet(r.keyEpoch, r.keyID, r.keyLevels)
}

// NewRegistration assembles a registration from its parts. The server
// builds registrations itself on anonymize requests; this constructor
// exists for store benchmarks and alternative frontends.
func NewRegistration(region *cloak.CloakedRegion, ks *keys.Set, policy *accessctl.Policy) *Registration {
	return &Registration{region: region, keySet: ks, policy: policy}
}

// Region returns the published cloaked region (not a copy; treat it as
// read-only).
func (r *Registration) Region() *cloak.CloakedRegion { return r.region }

// Levels returns the number of keyed privacy levels.
func (r *Registration) Levels() int {
	if r.derived() {
		return r.keyLevels
	}
	return r.keySet.Levels()
}

// SetExpiry bounds the registration's lifetime: after t the registration
// is treated as unknown and the GC sweeper reclaims it. The zero time
// clears the bound (live until deregistered). Call before Register; a
// stored registration's expiry must not be mutated.
func (r *Registration) SetExpiry(t time.Time) {
	if t.IsZero() {
		r.expiresAt = 0
		return
	}
	r.expiresAt = t.UnixNano()
}

// Expiry returns the registration's expiry instant (zero = never).
func (r *Registration) Expiry() time.Time {
	if r.expiresAt == 0 {
		return time.Time{}
	}
	return time.Unix(0, r.expiresAt).UTC()
}

// expiredAt reports whether the registration's TTL has elapsed at now
// (unix nanoseconds).
func (r *Registration) expiredAt(now int64) bool {
	return r.expiresAt != 0 && r.expiresAt <= now
}

// DefaultLevel returns the access level the policy grants requesters
// without an explicit entitlement.
func (r *Registration) DefaultLevel() int { return r.policy.DefaultLevel() }

// Grants returns the policy's explicit per-requester entitlements (a
// copy; mutating it changes nothing).
func (r *Registration) Grants() map[string]int { return r.policy.Grants() }

// Sealed reports whether the registration carries sealed levels, so its
// reduces open them instead of searching.
func (r *Registration) Sealed() bool { return r.sealed != nil }

// Reduce peels the registration's region down to level with the
// registration's own keys: the server's reduce when no read cache is
// installed, and what `anonymizer dump` uses to verify that a restored
// store still reduces every region identically. Levels at or above the
// published one return a clone of the published region. A sealed
// registration opens the levels it peels; one without sealed levels, or
// whose sealed levels do not open, is reversed by the engine's search
// (Deanonymize), with the same output.
func (r *Registration) Reduce(engine *cloak.Engine, level int) (*cloak.CloakedRegion, error) {
	reduced, _, err := r.reduce(engine, level)
	return reduced, err
}

// peelPath says how a reduce was answered, for /metrics.
type peelPath uint8

const (
	// peelNone: nothing to peel.
	peelNone peelPath = iota
	// peelSealed: the sealed levels opened.
	peelSealed
	// peelSearch: no sealed levels; the engine searched.
	peelSearch
	// peelSealFailed: the sealed levels did not open; the engine searched.
	peelSealFailed
)

// reduce is Reduce, reporting how it peeled.
func (r *Registration) reduce(engine *cloak.Engine, level int) (*cloak.CloakedRegion, peelPath, error) {
	if level >= r.Levels() {
		return r.region.Clone(), peelNone, nil
	}
	grant, err := r.grant(level)
	if err != nil {
		return nil, peelNone, err
	}
	return r.peel(engine, r.region, grant, level)
}

// grant resolves the keys of levels level+1.. of the registration.
func (r *Registration) grant(level int) (map[int][]byte, error) {
	ks, err := r.keys()
	if err != nil {
		return nil, err
	}
	return ks.Grant(level)
}

// peel reduces base — the registration's region, or a finer reduction of
// it — to target with the granted keys: by opening the sealed levels when
// the registration has them and they open, by the engine's search
// otherwise.
func (r *Registration) peel(engine *cloak.Engine, base *cloak.CloakedRegion, grant map[int][]byte, target int) (*cloak.CloakedRegion, peelPath, error) {
	path := peelSearch
	if r.sealed != nil {
		if reduced, ok := r.openReduce(base, grant, target); ok {
			return reduced, peelSealed, nil
		}
		path = peelSealFailed
	}
	reduced, err := engine.Deanonymize(base, grant, target)
	return reduced, path, err
}

// VerifyReduce is Reduce for a check: a sealed registration is reduced
// both ways, by opening its sealed levels and by the engine's search, and
// an open that fails or disagrees with the search is an error. `anonymizer
// dump` runs it, so a dump proves the sealed levels survived whatever
// carried the registration (backup, restore, replication).
func (r *Registration) VerifyReduce(engine *cloak.Engine, level int) (*cloak.CloakedRegion, error) {
	if r.sealed == nil || level >= r.Levels() {
		return r.Reduce(engine, level)
	}
	grant, err := r.grant(level)
	if err != nil {
		return nil, err
	}
	searched, err := engine.Deanonymize(r.region, grant, level)
	if err != nil {
		return nil, err
	}
	opened, ok := r.openReduce(r.region, grant, level)
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: level %d does not open", errSealMismatch, level)
	case !sameRegion(opened, searched):
		return nil, fmt.Errorf("%w: level %d opens to another region than the search finds", errSealMismatch, level)
	}
	return searched, nil
}

// withDefaultExpiry returns reg, or — when reg carries no expiry of its
// own and the store has a default TTL — a shallow copy carrying the
// default. Copying (rather than mutating reg) keeps registering one
// prototype Registration many times safe.
func withDefaultExpiry(reg *Registration, ttl time.Duration, now time.Time) *Registration {
	if ttl <= 0 || reg.expiresAt != 0 {
		return reg
	}
	cp := *reg
	cp.expiresAt = now.Add(ttl).UnixNano()
	return &cp
}

// DefaultShards is the store's stripe count, the same for every store and
// every data directory. Stripes are lock-striping units, each with its own
// snapshot file (every stripe journals into the one store-wide log), and
// 16 keeps per-stripe index overhead low while spreading lock contention.
// RestoreArchive re-stripes archives cut at fewer stripes.
const DefaultShards = 16

// shardMask maps a region-ID hash to its stripe (shardIndex).
const shardMask = DefaultShards - 1

// DefaultRegistrationTTL is the registration lifetime `anonymizer serve`
// applies by default, derived from the temporal cloak: a request is only
// temporally relevant while the coarsest tolerance window that contains
// it can still be current, so twice the default sigma_t window bounds the
// useful life of its reversibility (the window that contains the request
// plus the one in flight).
const DefaultRegistrationTTL = 2 * temporal.DefaultSigmaT

// DefaultGCInterval is the default period of the expiry sweeper.
const DefaultGCInterval = time.Minute

// shardIndex maps a region ID to a shard index by FNV-1a hash, inlined
// over the string so the hot path (every store touch of every request)
// stays allocation-free.
func shardIndex(id string, mask uint32) uint32 {
	h := uint32(2166136261) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619 // FNV prime
	}
	return h & mask
}

// tickLoop runs fn every period until stop closes — the shared shape of
// every store background loop (GC sweep, WAL sync).
// The caller has already added the goroutine to wg.
func tickLoop(wg *sync.WaitGroup, stop <-chan struct{}, period time.Duration, fn func()) {
	defer wg.Done()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fn()
		case <-stop:
			return
		}
	}
}
