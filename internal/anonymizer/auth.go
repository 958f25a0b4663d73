package anonymizer

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/reversecloak/reversecloak/internal/anonymizer/tenant"
)

// This file is the server's trust boundary: the auth wire op that stamps
// a connection's principal, the capability gate every request passes
// through, and the quota preflight the connection pipeline runs before a
// request reaches the worker pool. With no tenant registry configured
// (the default) all of it is inert — a nil check on the hot path — so
// single-tenant deployments and the existing test suites are unaffected.

// Errors of the trust boundary. Each has a machine-readable wire code
// (Response.Code) so clients can distinguish them without parsing
// message strings.
var (
	// ErrAuthRequired reports a request on a connection that has not
	// authenticated while the server requires it.
	ErrAuthRequired = errors.New("anonymizer: authentication required")
	// ErrAuthFailed reports a rejected auth attempt (unknown tenant or
	// bad token — not distinguished) or a principal revoked mid-session.
	ErrAuthFailed = errors.New("anonymizer: authentication failed")
	// ErrDenied reports an operation outside the tenant's capability
	// grant.
	ErrDenied = errors.New("anonymizer: permission denied")
	// ErrThrottled reports a request rejected by the tenant's rate
	// limit.
	ErrThrottled = errors.New("anonymizer: rate limited")
)

// The wire error codes (Response.Code).
const (
	CodeAuthRequired = "auth_required"
	CodeAuthFailed   = "auth_failed"
	CodeDenied       = "denied"
	CodeThrottled    = "throttled"
)

// failCode wraps an error into a response carrying its machine-readable
// code.
func failCode(code string, err error) *Response {
	resp := fail(err)
	resp.Code = code
	return resp
}

// principal is the authenticated identity stamped on a connection. Only
// the NAME is pinned: every operation re-resolves it against the current
// tenant table, so a reload that revokes the tenant cuts off in-flight
// connections too.
type principal struct {
	name string
}

// connCtx is the per-connection state threaded through the pipeline.
type connCtx struct {
	principal atomic.Pointer[principal]
}

// tenantFor resolves the connection's current tenant grant, or the
// rejection to send instead. With no registry configured it returns
// (nil, nil): everything is allowed.
func (s *Server) tenantFor(cc *connCtx) (*tenant.Tenant, *Response) {
	reg := s.cfg.tenants
	if reg == nil {
		return nil, nil
	}
	p := cc.principal.Load()
	if p == nil {
		return nil, failCode(CodeAuthRequired,
			fmt.Errorf("%w: issue an auth request first", ErrAuthRequired))
	}
	t := reg.Lookup(p.name)
	if t == nil {
		// Revoked since authentication: the connection's credential died
		// with the reload that removed the tenant.
		return nil, failCode(CodeAuthFailed,
			fmt.Errorf("%w: tenant %q has been revoked", ErrAuthFailed, p.name))
	}
	return t, nil
}

// opCapability maps an operation to the capability it requires. The
// empty capability means any authenticated principal may call it.
func opCapability(op Op) (tenant.Capability, bool) {
	switch op {
	case OpAnonymize, OpTouch, OpSetTrust:
		return tenant.CapAnonymize, true
	case OpReduce, OpRequestKeys:
		return tenant.CapReduce, true
	case OpDeregister:
		return tenant.CapDeregister, true
	case OpBackup, OpReplSubscribe, OpReplStatus, OpReplPromote:
		return tenant.CapOperator, true
	case OpGetRegion:
		return "", true // the published region is the LBS provider's view
	default:
		return "", false
	}
}

// opClass maps an operation to its rate-limit weight class.
func opClass(op Op) tenant.Class {
	switch op {
	case OpAnonymize, OpSetTrust, OpDeregister, OpTouch:
		return tenant.ClassWrite
	case OpReduce:
		return tenant.ClassReduce
	case OpBackup, OpReplSubscribe, OpReplPromote:
		return tenant.ClassOperator
	default:
		return tenant.ClassRead
	}
}

// authorize is the capability gate: it runs inside dispatch for every
// operation except ping and auth, which any connection may issue (the
// liveness probe and the door itself). It enforces the tenant's
// capability set and, for disclosure ops, the reduce floor — the
// server-side rendering of the paper's per-requester trust levels.
func (s *Server) authorize(cc *connCtx, req *Request) *Response {
	if s.cfg.tenants == nil || req.Op == OpPing || req.Op == OpAuth {
		return nil
	}
	t, rejection := s.tenantFor(cc)
	if rejection != nil {
		s.metrics.authRejects.Add(1)
		return rejection
	}
	need, known := opCapability(req.Op)
	if !known {
		return nil // unknown op: let dispatch report ErrBadOp
	}
	deny := func(err error) *Response {
		s.cfg.tenants.Usage(t.Name).Denied()
		s.metrics.denied.Add(1)
		return failCode(CodeDenied, err)
	}
	if need != "" && !t.Has(need) {
		return deny(fmt.Errorf("%w: tenant %q lacks the %q capability (op %q)",
			ErrDenied, t.Name, need, req.Op))
	}
	if t.ReduceFloor > 0 {
		switch req.Op {
		case OpReduce:
			if req.ToLevel < t.ReduceFloor {
				return deny(reduceFloorErr(t, req.ToLevel))
			}
		case OpRequestKeys:
			// Raw keys would let the holder peel arbitrarily far
			// client-side, making the floor unenforceable.
			return deny(fmt.Errorf("%w: tenant %q is capped at reduce level %d and may not fetch raw keys",
				ErrDenied, t.Name, t.ReduceFloor))
		}
	}
	return nil
}

// reduceFloorErr names a reduce-floor violation. Level 0 on the wire
// means "as fine as entitled", which a floored tenant may not request
// either: it must name an explicit target at or above its floor.
func reduceFloorErr(t *tenant.Tenant, toLevel int) error {
	return fmt.Errorf("%w: tenant %q may not reduce below level %d (requested %d)",
		ErrDenied, t.Name, t.ReduceFloor, toLevel)
}

// handleAuth authenticates the connection as a tenant. It runs inline in
// the connection's reader (not on the worker pool), so every request
// decoded after it — pipelined or not — observes the stamped principal.
// Re-authenticating switches the connection's principal.
func (s *Server) handleAuth(cc *connCtx, req *Request) *Response {
	reg := s.cfg.tenants
	if reg == nil {
		return fail(fmt.Errorf("%w: authentication is not enabled on this server", ErrBadOp))
	}
	t, err := reg.Authenticate(req.Tenant, req.Token)
	if err != nil {
		s.metrics.authFailures.Add(1)
		return failCode(CodeAuthFailed, fmt.Errorf("%w: bad tenant or token", ErrAuthFailed))
	}
	cc.principal.Store(&principal{name: t.Name})
	resp := newResp(true)
	resp.Tenant = t.Name
	resp.Caps = t.CapList()
	return resp
}

// preflight is the pipeline's cheap shedding point: it charges the
// request against the tenant's token bucket BEFORE the request is handed
// to the worker pool, so an over-quota client costs one JSON decode and
// an atomic check, not a cloak computation. It also accounts request
// bytes and executed ops to the tenant. A nil return means proceed; a
// response means reply with it and skip the workers.
//
// Unauthenticated requests pass through un-throttled: the gate in
// authorize rejects them anyway (when auth is on), and ping/auth must
// stay reachable to everyone.
func (s *Server) preflight(cc *connCtx, req *Request, reqBytes int64) *Response {
	reg := s.cfg.tenants
	if reg == nil {
		return nil
	}
	p := cc.principal.Load()
	if p == nil {
		return nil
	}
	t := reg.Lookup(p.name)
	if t == nil {
		return nil // authorize reports the revocation with its proper code
	}
	usage := reg.Usage(t.Name)
	usage.Bytes(reqBytes)
	if req.Op == OpPing || req.Op == OpAuth {
		return nil // liveness and the door are never charged
	}
	if !reg.Allow(t, t.Weight(opClass(req.Op))) {
		usage.Throttled()
		s.metrics.throttled.Add(1)
		return failCode(CodeThrottled,
			fmt.Errorf("%w: tenant %q exceeded its rate budget (retry later)", ErrThrottled, t.Name))
	}
	usage.Op()
	return nil
}
