package anonymizer

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/anonymizer/tenant"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/regcache"
)

// Errors returned by the server.
var (
	// ErrServerClosed reports use of a closed server.
	ErrServerClosed = errors.New("anonymizer: server closed")
	// ErrUnknownRegion reports an unregistered region ID.
	ErrUnknownRegion = errors.New("anonymizer: unknown region")
	// ErrBadOp reports an unsupported operation.
	ErrBadOp = errors.New("anonymizer: bad operation")
	// ErrVersion reports a request whose protocol major the server does
	// not speak.
	ErrVersion = errors.New("anonymizer: unsupported protocol version")
)

// maxTTL bounds wire-supplied registration lifetimes. Expiry instants
// are stored as unix nanoseconds (valid through year 2262), so an
// unchecked ttl_ms near the int64 limit would overflow into the past and
// the registration would be born expired; a century is beyond any real
// lifetime while keeping the arithmetic comfortably in range.
const maxTTL = 100 * 365 * 24 * time.Hour

// ServerOption customizes a Server.
type ServerOption func(*serverConfig)

// serverConfig collects the tunables behind the options.
type serverConfig struct {
	store      *DurableStore
	repl       Replicator
	tenants    *tenant.Registry
	cacheBytes int64
}

// WithStore installs the registration store the server serves from — one
// the caller opened (OpenDurableStore) with the directory, TTLs, fsync
// policy and master keyring it wants, may have inspected (Recovery), and
// closes itself after the server: the server does not close a store
// installed this way. Without it the server opens, and on
// Close closes, a journal-less store with default options.
func WithStore(st *DurableStore) ServerOption {
	return func(c *serverConfig) { c.store = st }
}

// WithReplicator installs the node's replication follower state: write
// requests are refused (with a redirect to the leader) while the
// replicator reports follower role, and repl_status/repl_promote consult
// it. Pair it with WithStore(follower.Store()).
func WithReplicator(r Replicator) ServerOption {
	return func(c *serverConfig) { c.repl = r }
}

// WithTenants turns on the trust boundary: connections must
// authenticate (the auth op) as a tenant from the registry before doing
// anything but ping, every request is checked against the tenant's
// capability grant, and its rate budget is enforced in the connection
// pipeline before the worker pool. The registry is owned by the caller
// (it may be hot-reloading from a tenants file); the server does not
// close it.
func WithTenants(reg *tenant.Registry) ServerOption {
	return func(c *serverConfig) { c.tenants = reg }
}

// WithReduceCacheBytes turns on the server's read-path cache with the
// given byte budget (n < 0 = unbounded; 0, the default, disables it).
// The cache memoizes reduced regions by (region ID, level) and derived
// key sets by (region ID, epoch, levels), serves hits zero-copy, and
// collapses concurrent misses on the same reduction with a singleflight.
// Reduce semantics are unchanged: reductions are deterministic functions
// of immutable inputs, and entries are invalidated from the store's
// shared mutation-apply path on deregister and expiry (trust changes
// never touch the cached bytes).
func WithReduceCacheBytes(n int64) ServerOption {
	return func(c *serverConfig) { c.cacheBytes = n }
}

// Server is the trusted anonymization server. Create with NewServer, start
// with Start, stop with Close.
//
// The service layer is fully concurrent: registrations live in a sharded
// store, connections are served by a per-connection pipeline (reader,
// bounded worker pool, order-preserving writer), and the cloak engines are
// themselves safe for concurrent use, so throughput scales with cores and
// with the number of connected clients.
type Server struct {
	engines map[cloak.Algorithm]*cloak.Engine
	store   *DurableStore
	// ownsStore marks the default journal-less store the server opened
	// itself and must close on Close; false when the caller installed one
	// via WithStore.
	ownsStore bool
	cfg       serverConfig

	// cache is the read-path cache behind WithReduceCacheBytes; nil when
	// disabled. Every cached read is gated by a store Lookup, so a cache
	// entry can never resurrect a deregistered or expired registration.
	cache *regcache.Cache

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	// replFollowers is the leader's follower registry (repl_status lag).
	replFollowers replRegistry

	// metrics is the always-on operational instrumentation behind the
	// admin listener's /metrics.
	metrics *serverMetrics

	wg sync.WaitGroup
}

// NewServer builds a server with one engine per supported algorithm.
// Engines must share the same graph. Registrations live in the store
// installed with WithStore — durable, replicated, deriving keys from a
// master keyring: whatever that store was opened as — or, without one, in
// a journal-less store the server owns, which is all a test, an example or
// a throwaway server needs. That store's expiry sweeper runs until Close,
// so a server must be closed even if it never served.
func NewServer(engines map[cloak.Algorithm]*cloak.Engine, opts ...ServerOption) (*Server, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("%w: no engines", ErrBadOp)
	}
	var cfg serverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	ownsStore := cfg.store == nil
	if ownsStore {
		st, err := OpenDurableStore("")
		if err != nil {
			return nil, err
		}
		cfg.store = st
	}
	s := &Server{
		engines:   engines,
		store:     cfg.store,
		ownsStore: ownsStore,
		cfg:       cfg,
		conns:     make(map[net.Conn]struct{}),
		metrics:   newServerMetrics(),
	}
	if cfg.cacheBytes != 0 {
		// Invalidation flows from the store's one shared apply path.
		s.cache = regcache.New(regcache.Config{MaxBytes: cfg.cacheBytes})
		s.store.setCacheInvalidator(s.cache.Invalidate)
	}
	return s, nil
}

// ReduceCacheStats snapshots the read-path cache counters. ok is false
// when the server runs without a cache.
func (s *Server) ReduceCacheStats() (stats regcache.Stats, ok bool) {
	if s.cache == nil {
		return regcache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Close.
// It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("anonymizer: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return nil, ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.trackConn(conn) {
			_ = conn.Close() // lost the race with Close
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrackConn(conn)
			s.handleConn(conn)
		}()
	}
}

// trackConn registers a live connection; it reports false when the server
// is already closing.
func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrackConn removes a finished connection.
func (s *Server) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the listener, drops every live connection and waits for the
// in-flight handlers to drain, then closes the store the server owns
// (stopping its expiry sweeper). Clients mid-request observe a transport
// error, never a half-written response for a later request.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close() // unblocks the connection's reader
	}
	s.wg.Wait()
	if s.ownsStore {
		// Handlers have drained; close the server-owned store last.
		if serr := s.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// dispatch executes one request of a connection and hands the response
// to its job. A reduce the reader already probed (job.reg set) resumes
// at its peel: its gates passed on the reader.
func (s *Server) dispatch(cc *connCtx, job *connJob) {
	start := time.Now()
	var resp *Response
	if job.reg != nil {
		resp = s.reducePeel(&job.req, job.reg, job.target)
	} else if resp = s.gate(cc, &job.req); resp == nil {
		resp = s.handle(cc, &job.req)
	}
	s.finish(job, resp, job.probe+time.Since(start))
}

// dispatchInline answers a request on the connection reader when nothing
// in the answer can block — it waits at most on a store or cache shard
// lock: ping, auth, get_region, and a reduce with nothing to peel or a
// cached peel. It runs the gates dispatch runs. It reports false when the
// request must go to a worker; a reduce whose peel is not cached then
// carries its registration and target level on the job, so the worker
// does not look them up again.
func (s *Server) dispatchInline(cc *connCtx, job *connJob) bool {
	req := &job.req
	switch req.Op {
	case OpPing, OpAuth, OpGetRegion, OpReduce:
	default:
		return false
	}
	start := time.Now()
	resp := s.gate(cc, req)
	switch {
	case resp != nil:
	case req.Op == OpReduce:
		if resp, job.reg, job.target = s.reduceProbe(req); resp == nil {
			job.probe = time.Since(start)
			return false
		}
	default:
		resp = s.handle(cc, req)
	}
	s.finish(job, resp, time.Since(start))
	return true
}

// finish stamps a response with the connection's negotiated protocol
// major (1 on JSON connections, 2 after a binary upgrade), times the
// request into its op's latency histogram behind /metrics and hands the
// response to the job.
func (s *Server) finish(job *connJob, resp *Response, d time.Duration) {
	resp.V = job.major
	s.metrics.observe(job.req.Op, d, resp.OK)
	job.resp = resp
}

// gate runs the checks every request passes before its handler, in
// order: protocol version first (a future major's fields may mean
// something else), then the trust boundary (an unauthenticated or
// unentitled caller learns nothing about roles or state), then the
// replication role. A nil return means proceed.
func (s *Server) gate(cc *connCtx, req *Request) *Response {
	if req.V > ProtocolBinaryMajor {
		return fail(fmt.Errorf("%w: request major %d, server speaks %d-%d",
			ErrVersion, req.V, ProtocolMajor, ProtocolBinaryMajor))
	}
	if resp := s.authorize(cc, req); resp != nil {
		return resp
	}
	// Followers serve reads locally and redirect every mutation to the
	// leader — the mutation stream has exactly one producer per epoch.
	if writeOp(req.Op) && !s.isLeader() {
		return s.notLeader()
	}
	return nil
}

// handle routes a request that passed its gates to its handler.
func (s *Server) handle(cc *connCtx, req *Request) *Response {
	switch req.Op {
	case OpPing:
		return newResp(true)
	case OpAuth:
		return s.handleAuth(cc, req)
	case OpAnonymize:
		return s.handleAnonymize(req)
	case OpGetRegion:
		return s.handleGetRegion(req)
	case OpSetTrust:
		return s.handleSetTrust(req)
	case OpRequestKeys:
		return s.handleRequestKeys(req)
	case OpReduce:
		return s.handleReduce(req)
	case OpDeregister:
		return s.handleDeregister(req)
	case OpTouch:
		return s.handleTouch(req)
	case OpBackup:
		return s.handleBackup(req)
	case OpReplSubscribe:
		return s.handleReplSubscribe(req)
	case OpReplStatus:
		return s.handleReplStatus()
	case OpReplPromote:
		return s.handleReplPromote()
	default:
		return fail(fmt.Errorf("%w: %q", ErrBadOp, req.Op))
	}
}

// respPool recycles top-level response shells through the connection
// writer: every handler builds its response from the pool and the writer
// returns it right after encoding, so the steady-state request path
// allocates no Response.
var respPool = sync.Pool{New: func() any { return new(Response) }}

// newResp returns a recycled response shell with OK set.
func newResp(ok bool) *Response {
	r := respPool.Get().(*Response)
	r.OK = ok
	return r
}

// putResp recycles a response once the writer has encoded it; every
// response the server sends comes from newResp. Pointer fields are
// dropped, not scrubbed — zero-copy regions are owned by the store.
func putResp(r *Response) {
	if r == nil {
		return
	}
	*r = Response{}
	respPool.Put(r)
}

// fail wraps an error into a response.
func fail(err error) *Response {
	r := newResp(false)
	r.Error = err.Error()
	return r
}

// checkTTL validates a wire-supplied ttl_ms (anonymize, touch): 0 selects
// the server's default, a negative value or one beyond maxTTL is refused.
func checkTTL(ms int64) error {
	if ms < 0 {
		return fmt.Errorf("%w: negative ttl_ms %d", ErrBadOp, ms)
	}
	if ms > int64(maxTTL/time.Millisecond) {
		return fmt.Errorf("%w: ttl_ms %d exceeds maximum %d",
			ErrBadOp, ms, int64(maxTTL/time.Millisecond))
	}
	return nil
}

// handleAnonymize generates keys, cloaks and registers the result. A
// request TTL bounds the registration's lifetime; without one the store's
// configured default (if any) applies.
func (s *Server) handleAnonymize(req *Request) *Response {
	if req.Profile == nil {
		return fail(fmt.Errorf("%w: missing profile", ErrBadOp))
	}
	if err := checkTTL(req.TTLMillis); err != nil {
		return fail(err)
	}
	algo, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		return fail(err)
	}
	engine, ok := s.engines[algo]
	if !ok {
		return fail(fmt.Errorf("%w: algorithm %v not enabled", ErrBadOp, algo))
	}
	levels := len(req.Profile.Levels)
	if levels == 0 {
		return fail(fmt.Errorf("%w: empty profile", ErrBadOp))
	}
	// Derived-key mode (the store carries a master keyring): allocate the
	// registration's ID up front (the keys are a function of it), derive
	// the per-level keys from the active master epoch, and record only the
	// (epoch, levels) reference. Without a keyring fresh random keys are
	// generated and stored.
	var (
		keySet *keys.Set
		regID  string
		epoch  uint32
	)
	keyring := s.store.cfg.keyring
	if keyring != nil {
		regID = s.store.AllocateID()
		epoch = keyring.ActiveEpoch()
		ks, err := keyring.DeriveSet(epoch, regID, levels)
		if err != nil {
			return fail(fmt.Errorf("anonymizer: key derivation: %w", err))
		}
		keySet = ks
	} else {
		ks, err := keys.AutoGenerate(levels)
		if err != nil {
			return fail(fmt.Errorf("anonymizer: key generation: %w", err))
		}
		keySet = ks
	}
	levelKeys := keySet.All()
	region, trace, err := engine.Anonymize(cloak.Request{
		UserSegment: req.UserSegment,
		Profile:     *req.Profile,
		Keys:        levelKeys,
	})
	if err != nil {
		return fail(err)
	}
	// Keep what the engine knew: each level's additions, sealed under
	// its key, so a reduce opens them instead of searching.
	sealed, err := sealLevels(region, trace, levelKeys)
	if err != nil {
		return fail(err)
	}
	policy, err := accessctl.NewPolicy(levels, levels)
	if err != nil {
		return fail(err)
	}
	if s.isClosed() {
		return fail(ErrServerClosed)
	}
	var reg *Registration
	if keyring != nil {
		reg = NewDerivedRegistration(region, keyring, epoch, regID, levels, policy)
	} else {
		reg = &Registration{region: region, keySet: keySet, policy: policy}
	}
	reg.sealed = sealed
	var expiresAtMillis int64
	if req.TTLMillis > 0 {
		expiry := s.store.cfg.now().Add(time.Duration(req.TTLMillis) * time.Millisecond)
		reg.SetExpiry(expiry)
		expiresAtMillis = expiry.UnixMilli()
	}
	id, err := s.store.Register(reg)
	if err != nil {
		return fail(err)
	}
	resp := newResp(true)
	resp.RegionID = id
	resp.Region = region
	resp.Levels = levels
	resp.ExpiresAtMillis = expiresAtMillis
	return resp
}

// handleGetRegion returns the public region.
func (s *Server) handleGetRegion(req *Request) *Response {
	reg, err := s.store.Lookup(req.RegionID)
	if err != nil {
		return fail(err)
	}
	// Zero-copy: a registration's region is immutable once stored (reduce
	// and deanonymize build fresh regions), so the lookup fast path hands
	// the stored region straight to the response encoder.
	resp := newResp(true)
	resp.RegionID = req.RegionID
	resp.Region = reg.region
	resp.Levels = reg.Levels()
	return resp
}

// handleSetTrust updates the owner's policy. The mutation goes through
// the store, which journals it.
func (s *Server) handleSetTrust(req *Request) *Response {
	if req.RegionID == "" {
		return fail(fmt.Errorf("%w: missing region id", ErrBadOp))
	}
	if req.Requester == "" {
		return fail(fmt.Errorf("%w: missing requester", ErrBadOp))
	}
	if err := s.store.SetTrust(req.RegionID, req.Requester, req.ToLevel); err != nil {
		return fail(err)
	}
	return newResp(true)
}

// handleDeregister removes a registration, destroying its keys: the
// published region stays wherever it was shipped, but it can never be
// reduced again (the paper's reversibility ends when the owner says so).
func (s *Server) handleDeregister(req *Request) *Response {
	if req.RegionID == "" {
		return fail(fmt.Errorf("%w: missing region id", ErrBadOp))
	}
	if err := s.store.Deregister(req.RegionID); err != nil {
		return fail(err)
	}
	return newResp(true)
}

// handleBackup streams a hot backup of the store into the response (a
// journal-less store has nothing to back up and refuses in-band).
// The archive restores to the store's state at one LSN, its watermark,
// and is self-verifying: restore rejects any truncation or corruption the
// transport may introduce. A request with a since watermark ships an
// incremental archive instead: only the log records after that LSN. That
// is also a replication follower's poll: with the follower field set,
// since is the follower's durable watermark, and recording it is the
// follower's ack (repl_status behind, anonymizer_repl_follower_behind).
func (s *Server) handleBackup(req *Request) *Response {
	var buf bytes.Buffer
	if req.Since != "" {
		if resp := s.needsStream(); resp != nil {
			return resp
		}
		since, err := strconv.ParseUint(req.Since, 10, 64)
		if err != nil {
			return fail(fmt.Errorf("%w: since %q is not an LSN", ErrBadOp, req.Since))
		}
		if _, _, err := s.store.WriteIncrementalBackup(&buf, since); err != nil {
			return fail(err)
		}
		s.replFollowers.note(req.Follower, since)
	} else if _, err := s.store.WriteBackup(&buf); err != nil {
		return fail(err)
	}
	resp := newResp(true)
	resp.Archive = buf.Bytes()
	return resp
}

// handleRequestKeys grants keys per the policy.
func (s *Server) handleRequestKeys(req *Request) *Response {
	reg, err := s.store.Lookup(req.RegionID)
	if err != nil {
		return fail(err)
	}
	if req.Requester == "" {
		return fail(fmt.Errorf("%w: missing requester", ErrBadOp))
	}
	ks, inserted, err := s.regKeySet(reg)
	if err != nil {
		return fail(err)
	}
	if inserted {
		// Same stranded-insert window as handleReduce: an invalidation
		// racing the PutKeys above may have fired before the entry existed.
		if _, err := s.store.Lookup(req.RegionID); err != nil {
			s.cache.Invalidate(req.RegionID)
			return fail(err)
		}
	}
	grant, err := reg.policy.KeysFor(req.Requester, ks)
	if err != nil {
		return fail(err)
	}
	enc := make(map[int]string, len(grant))
	for lv, k := range grant {
		enc[lv] = hex.EncodeToString(k)
	}
	resp := newResp(true)
	resp.Keys = enc
	return resp
}

// handleReduce peels the region down to the finest level the requester is
// entitled to (or a coarser requested to_level), entirely server-side: the
// keys never leave the server.
func (s *Server) handleReduce(req *Request) *Response {
	resp, reg, target := s.reduceProbe(req)
	if resp != nil {
		return resp
	}
	return s.reducePeel(req, reg, target)
}

// reduceProbe is the half of a reduce that cannot block: it looks the
// registration up, resolves the target level and answers when there is
// nothing to peel or the cache holds the peel. A nil response hands the
// registration and target to reducePeel.
func (s *Server) reduceProbe(req *Request) (*Response, *Registration, int) {
	reg, err := s.store.Lookup(req.RegionID)
	if err != nil {
		return fail(err), nil, 0
	}
	if req.Requester == "" {
		return fail(fmt.Errorf("%w: missing requester", ErrBadOp)), nil, 0
	}
	entitled, err := reg.policy.LevelFor(req.Requester)
	if err != nil {
		return fail(err), nil, 0
	}
	target := max(entitled, req.ToLevel)
	levels := reg.Levels()
	if target >= levels {
		// Nothing to peel: the requester sees the published region as-is.
		// Zero-copy, like handleGetRegion: the stored region is immutable.
		return reduceResp(req.RegionID, reg.region, levels, levels), nil, 0
	}
	if s.cache != nil {
		// A memoized reduction is immutable (Deanonymize builds fresh
		// regions), so it is handed to the encoder zero-copy like the
		// no-peel path above.
		if cached, ok := s.cache.GetRegion(req.RegionID, target); ok {
			return reduceResp(req.RegionID, cached, levels, target), nil, 0
		}
	}
	return nil, reg, target
}

// reducePeel is the half of a reduce that may block — key derivation,
// opening the sealed levels or the engine's search, a wait on another
// request's peel of the same level — for a registration and target
// reduceProbe resolved.
func (s *Server) reducePeel(req *Request, reg *Registration, target int) *Response {
	levels := reg.Levels()
	engine, ok := s.engines[reg.region.Algorithm]
	if !ok {
		return fail(fmt.Errorf("%w: algorithm %v not enabled",
			ErrBadOp, reg.region.Algorithm))
	}
	if s.cache != nil {
		// Miss: collapse concurrent requests for the same (id, level)
		// onto one peel, and start that peel from the nearest cached
		// finer level instead of the published region when one exists —
		// the reversal is deterministic per level, so peeling N-1..t
		// through a cached level m yields byte-identical output to
		// peeling from the top (pinned by the conformance tests).
		reduced, err := s.cache.DoRegion(req.RegionID, target, func() (*cloak.CloakedRegion, error) {
			base := reg.region
			if r, lv, ok := s.cache.NearestRegion(req.RegionID, target+1); ok && lv < base.PrivacyLevel() {
				base = r
			}
			// An inserted-but-stranded key set is covered by the reduce
			// path's own post-insert liveness check: Invalidate drops every
			// tier for the ID, key sets included.
			ks, _, err := s.regKeySet(reg)
			if err != nil {
				return nil, err
			}
			grant, err := ks.Grant(target)
			if err != nil {
				return nil, err
			}
			reduced, path, err := reg.peel(engine, base, grant, target)
			s.metrics.countPeel(path)
			return reduced, err
		})
		if err != nil {
			return fail(err)
		}
		// A deregister/expiry landing between the Lookup above and the
		// insert inside DoRegion fires its invalidation before the entry
		// exists and would leave it stranded. Re-checking liveness here
		// closes the window: one of the two — this check or the mutation's
		// invalidation — always runs after the insert.
		if _, err := s.store.Lookup(req.RegionID); err != nil {
			s.cache.Invalidate(req.RegionID)
			return fail(err)
		}
		return reduceResp(req.RegionID, reduced, levels, target)
	}
	reduced, path, err := reg.reduce(engine, target)
	s.metrics.countPeel(path)
	if err != nil {
		return fail(err)
	}
	return reduceResp(req.RegionID, reduced, levels, target)
}

// regKeySet resolves a registration's per-level key set through the
// read-path cache when one is installed: hot derived registrations skip
// the HKDF re-expansion on every reduce/request_keys. Cached sets are
// stamped with the keyring's content generation, so a key-file reload
// (rotation) fences out everything derived before it. Stored-key
// registrations already hold their material and bypass the cache.
// inserted reports whether this call added a cache entry; callers serving
// a response directly must then re-check the registration's liveness (see
// handleRequestKeys) so an invalidation racing the insert can't strand it.
func (s *Server) regKeySet(reg *Registration) (ks *keys.Set, inserted bool, err error) {
	if s.cache == nil || !reg.derived() || reg.keyring == nil {
		ks, err = reg.keys()
		return ks, false, err
	}
	gen := reg.keyring.Generation()
	if ks, ok := s.cache.GetKeys(reg.keyID, reg.keyEpoch, reg.keyLevels, gen); ok {
		return ks, false, nil
	}
	ks, err = reg.keys()
	if err != nil {
		return nil, false, err
	}
	s.cache.PutKeys(reg.keyID, reg.keyEpoch, reg.keyLevels, gen, ks)
	return ks, true, nil
}

// reduceResp builds a reduce response. The reached level lives in the
// response's own scratch field, so the always-present Level pointer
// costs no extra allocation on the pooled path.
func reduceResp(id string, region *cloak.CloakedRegion, levels, level int) *Response {
	resp := newResp(true)
	resp.RegionID = id
	resp.Region = region
	resp.Levels = levels
	resp.levelVal = level
	resp.Level = &resp.levelVal
	return resp
}

// parseAlgorithm maps the wire name to the algorithm; empty means RGE.
func parseAlgorithm(name string) (cloak.Algorithm, error) {
	switch name {
	case "", "RGE", "rge":
		return cloak.RGE, nil
	case "RPLE", "rple":
		return cloak.RPLE, nil
	default:
		return 0, fmt.Errorf("%w: algorithm %q", ErrBadOp, name)
	}
}

// Registrations returns the number of stored registrations (for tests and
// the toolkit status display).
func (s *Server) Registrations() int { return s.store.Len() }
