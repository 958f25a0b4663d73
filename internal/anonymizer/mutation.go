package anonymizer

import (
	"fmt"

	"github.com/reversecloak/reversecloak/internal/accessctl"
)

// MutationOp discriminates the registration-lifecycle mutations.
type MutationOp uint8

// The four lifecycle mutations. Every state change of every store — live
// or replayed from a log — is one of these.
const (
	// MutRegister introduces a registration under a fresh region ID.
	MutRegister MutationOp = iota + 1
	// MutSetTrust updates one requester's entitlement in the
	// registration's access-control policy.
	MutSetTrust
	// MutDeregister removes a registration at the owner's request,
	// destroying its keys.
	MutDeregister
	// MutExpire removes a registration whose TTL has elapsed. Expire
	// mutations are appended by the leader's sweep (the GC sweeper's, or
	// the one compaction runs first), never by clients, and are
	// idempotent: expiring an already-removed registration is a no-op.
	// They are the only way an elapsed lease leaves a store.
	MutExpire
	// MutTouch renews a registration's lease: it replaces the expiry
	// instant of a live registration, so mobile clients that periodically
	// re-report their location extend the registration they already hold
	// instead of re-registering. The new instant rides in the mutation
	// (journaled, replicated, replayed), never recomputed downstream.
	MutTouch
)

// String implements fmt.Stringer.
func (op MutationOp) String() string {
	switch op {
	case MutRegister:
		return "register"
	case MutSetTrust:
		return "set-trust"
	case MutDeregister:
		return "deregister"
	case MutExpire:
		return "expire"
	case MutTouch:
		return "touch"
	default:
		return fmt.Sprintf("MutationOp(%d)", uint8(op))
	}
}

// Mutation is one event of the registration lifecycle: the single typed
// unit that flows through the store. The live store journals a mutation
// to its WAL (when it has one) and then applies it; recovery replays
// journaled mutations through the same apply path. There is exactly one apply implementation (regTable.apply),
// so the live state, the log, and the recovered state can never drift
// apart structurally.
type Mutation struct {
	// Op selects the lifecycle transition.
	Op MutationOp
	// ID is the region ID the mutation applies to.
	ID string
	// Reg is the registration being introduced (MutRegister only). Its
	// expiry, if any, rides inside the registration.
	Reg *Registration
	// Requester and ToLevel carry the MutSetTrust payload.
	Requester string
	ToLevel   int
	// ExpiresAt carries the MutTouch payload: the registration's new
	// expiry instant in unix nanoseconds (0 clears the bound).
	ExpiresAt int64
}

// applyMode selects live-path or replay-path semantics for apply.
type applyMode int

const (
	// applyLive enforces preconditions: mutating an unknown (or expired)
	// region is an error a client can observe.
	applyLive applyMode = iota
	// applyReplay is lenient: recovery's job is to restore every
	// consistent prefix, so mutations that no longer have a target (their
	// registration was dropped by a snapshot race, deregistered in a later
	// record, ...) are skipped rather than fatal. Replay is also
	// expiry-blind: every journaled mutation was validated against a LIVE
	// target when it was appended, so replay applies it unconditionally —
	// evaluating TTLs mid-replay against the open instant would drop a
	// registration whose lease a later touch record renews. Only replayed
	// expire records remove elapsed leases, which makes replay commute
	// with wall time.
	applyReplay
)

// note counts what one mutation replayed by recovery changed.
func (r *RecoveryStats) note(m *Mutation, applied bool) {
	switch {
	case m.Op == MutSetTrust && applied:
		r.TrustUpdates++
	case m.Op == MutDeregister && applied:
		r.Deregistrations++
	case m.Op == MutTouch && applied:
		r.Renewals++
	case m.Op == MutExpire && applied:
		r.Expired++
	}
}

// regTable is the in-memory registration state of one store shard. Every
// mutation of the shard routes through apply below; the caller provides
// the locking.
type regTable struct {
	regs map[string]*Registration
	// inval, when set, is called (under the shard lock) with the ID of
	// every registration that apply removes or replaces — the single hook
	// the server's read-path cache hangs its invalidation on. Because
	// every mutation route (live writes, the durable journal-then-apply
	// flow, WAL/snapshot replay, follower frame ingest, the sweeps) goes
	// through this table, attaching here means they all invalidate
	// identically; there is no second place to forget. Trust updates and lease renewals do NOT fire it:
	// a registration's region and per-level keys are immutable after
	// registration, so nothing a set_trust or touch changes is cached.
	inval func(id string)
}

// newRegTable returns an empty table.
func newRegTable() regTable {
	return regTable{regs: make(map[string]*Registration)}
}

// lookup resolves an ID to its live registration: entries whose TTL has
// elapsed are invisible even before the sweeper reclaims them (lazy
// expiry), so expiry is effective the instant it is due.
func (t regTable) lookup(id string, now int64) *Registration {
	reg, ok := t.regs[id]
	if !ok || reg.expiredAt(now) {
		return nil
	}
	return reg
}

// lookupAny resolves an ID whether or not its TTL has elapsed — the
// replay-path resolver: a journaled mutation's target was live when the
// record was appended, so replay must find it even when the open instant
// lies past an expiry a later touch record extends.
func (t regTable) lookupAny(id string) *Registration {
	return t.regs[id]
}

// check validates m's live-path preconditions against the table without
// mutating anything. The durable store calls it before journaling so the
// WAL never carries a record the live path would have rejected; apply
// calls it again (same lock, so nothing can have changed) in live mode.
func (t regTable) check(m *Mutation, now int64) error {
	switch m.Op {
	case MutRegister, MutExpire:
		return nil
	case MutTouch:
		if t.lookup(m.ID, now) == nil {
			return fmt.Errorf("%w: %q", ErrUnknownRegion, m.ID)
		}
		return nil
	case MutSetTrust:
		reg := t.lookup(m.ID, now)
		if reg == nil {
			return fmt.Errorf("%w: %q", ErrUnknownRegion, m.ID)
		}
		if m.ToLevel < 0 || m.ToLevel > reg.policy.Levels() {
			return fmt.Errorf("%w: level %d of %d",
				accessctl.ErrBadLevel, m.ToLevel, reg.policy.Levels())
		}
		return nil
	case MutDeregister:
		if t.lookup(m.ID, now) == nil {
			return fmt.Errorf("%w: %q", ErrUnknownRegion, m.ID)
		}
		return nil
	default:
		return fmt.Errorf("%w: mutation %v", ErrBadOp, m.Op)
	}
}

// apply transitions the table by one mutation. This is the system's
// single mutation-apply implementation: the live store's
// journal-then-apply flow, follower ingest and WAL/snapshot replay all
// route through it. It reports whether the mutation changed state — replay
// counts recovery statistics off that flag — and now is the clock reading
// live-path expiry is evaluated against, in unix nanoseconds (replay is
// expiry-blind and ignores it).
func (t regTable) apply(m *Mutation, mode applyMode, now int64) (bool, error) {
	if mode == applyLive {
		if err := t.check(m, now); err != nil {
			return false, err
		}
	}
	switch m.Op {
	case MutRegister:
		// Replay inserts unconditionally, expired or not: a later touch
		// record may renew the lease, and the leader's sweep journals the
		// expire of whatever stays dead. A snapshot duplicate (crash between snapshot
		// rename and WAL truncation) is simply overwritten with identical
		// state, so the outcome is order-independent. Cached reductions of
		// a replaced entry are invalidated all the same: cheap, and
		// correct even if a future replay source ships a differing body.
		if _, existed := t.regs[m.ID]; existed && t.inval != nil {
			t.inval(m.ID)
		}
		t.regs[m.ID] = m.Reg
		return true, nil
	case MutSetTrust:
		reg := t.lookup(m.ID, now)
		if mode == applyReplay {
			reg = t.lookupAny(m.ID)
		}
		if reg == nil {
			return false, nil // replay: target gone, skip
		}
		if err := reg.policy.SetTrust(m.Requester, m.ToLevel); err != nil {
			if mode == applyReplay {
				return false, nil
			}
			return false, err
		}
		return true, nil
	case MutTouch:
		reg := t.lookup(m.ID, now)
		if mode == applyReplay {
			reg = t.lookupAny(m.ID)
		}
		if reg == nil {
			return false, nil // replay: target gone, skip
		}
		// Replace rather than mutate: readers fetched the old value under
		// the shard lock and may still be reading its expiry concurrently.
		cp := *reg
		cp.expiresAt = m.ExpiresAt
		t.regs[m.ID] = &cp
		return true, nil
	case MutDeregister:
		if _, ok := t.regs[m.ID]; !ok {
			return false, nil // replay: already gone, skip
		}
		delete(t.regs, m.ID)
		if t.inval != nil {
			t.inval(m.ID)
		}
		return true, nil
	case MutExpire:
		reg, ok := t.regs[m.ID]
		if !ok {
			return false, nil
		}
		if mode == applyLive && !reg.expiredAt(now) {
			return false, nil // raced with nothing to do; expire is idempotent
		}
		delete(t.regs, m.ID)
		if t.inval != nil {
			t.inval(m.ID)
		}
		return true, nil
	default:
		return false, fmt.Errorf("%w: mutation %v", ErrBadOp, m.Op)
	}
}
