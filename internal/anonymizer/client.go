package anonymizer

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Errors returned by the client.
var (
	// ErrRemote wraps an error reported by the server.
	ErrRemote = errors.New("anonymizer: remote error")
	// ErrClientClosed reports use of a closed client.
	ErrClientClosed = errors.New("anonymizer: client closed")
)

// RemoteError is the error the client returns for a server-side
// rejection. It always matches errors.Is(err, ErrRemote); when the
// server attached a machine-readable code it additionally matches the
// corresponding trust-boundary sentinel (ErrAuthRequired, ErrAuthFailed,
// ErrDenied, ErrThrottled), so callers can branch on the rejection class
// without parsing message strings.
type RemoteError struct {
	// Code is the wire rejection class ("auth_required", "auth_failed",
	// "denied", "throttled") or empty for ordinary errors.
	Code string
	msg  string
}

// remoteError builds the error for a response with OK=false.
func remoteError(resp *Response) error {
	return &RemoteError{Code: resp.Code, msg: resp.Error}
}

// Error renders the same message shape errors always had:
// "anonymizer: remote error: <server message>".
func (e *RemoteError) Error() string { return ErrRemote.Error() + ": " + e.msg }

// Is matches ErrRemote always, plus the sentinel for the error's code.
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrRemote:
		return true
	case ErrAuthRequired:
		return e.Code == CodeAuthRequired
	case ErrAuthFailed:
		return e.Code == CodeAuthFailed
	case ErrDenied:
		return e.Code == CodeDenied
	case ErrThrottled:
		return e.Code == CodeThrottled
	}
	return false
}

// call is one in-flight request: the receive loop completes it with either
// a response or a transport error, then sends one token on done.
type call struct {
	resp *Response
	err  error
	done chan struct{}
}

// callPool recycles call slots across requests. The done channel
// (buffered, capacity 1) survives recycling: the receive loop sends
// exactly one token per call and the round-tripper consumes it before
// the slot is pooled, so a recycled channel is always empty. A call
// abandoned mid-flight (client broke before its token arrived) is never
// recycled — the receive loop may still touch it.
var callPool = sync.Pool{
	New: func() any { return &call{done: make(chan struct{}, 1)} },
}

func getCall() *call { return callPool.Get().(*call) }

func putCall(cl *call) {
	cl.resp = nil
	cl.err = nil
	callPool.Put(cl)
}

// ClientOption customizes a Client.
type ClientOption func(*clientConfig)

// clientConfig collects the client tunables.
type clientConfig struct {
	codec Codec
}

// WithCodec selects the client's wire codec. The default, CodecAuto,
// negotiates binary framing (protocol v2) at dial time and falls back to
// JSON v1 transparently when the server predates it; CodecJSON skips
// negotiation entirely; CodecBinary makes Dial fail instead of falling
// back. The choice is per connection.
func WithCodec(c Codec) ClientOption {
	return func(cfg *clientConfig) { cfg.codec = c }
}

// Client talks to a Server over one connection. It is safe for concurrent
// use, and concurrent calls are pipelined: each caller sends without
// waiting for earlier responses, and a single receive loop matches the
// in-order responses back to callers. A single goroutine issuing one call
// at a time behaves exactly like the old lock-step client.
type Client struct {
	conn net.Conn

	sendMu sync.Mutex // serializes enqueue + encode so wire order == queue order
	// sendWaiters counts callers waiting for sendMu. A sender leaves its
	// request in bw unflushed only while one is: the last sender of a burst
	// flushes for all of them.
	sendWaiters atomic.Int32
	// bw buffers requests of both codecs; enc encodes into it on JSON
	// connections (nil once binary). bw, enc and the binary encode scratch
	// are guarded by sendMu.
	bw      *bufio.Writer
	enc     *json.Encoder
	sendBuf []byte
	// recvR is the binary receive-side reader (nil on JSON connections),
	// consumed only by recvLoop.
	recvR *bufio.Reader
	// major is the protocol major stamped on every request: 1 on JSON
	// connections, 2 after a successful binary negotiation.
	major int
	// recvLeftover carries bytes the negotiation decoder read past the
	// server's reply on a JSON fallback; recvLoop must consume them first.
	recvLeftover io.Reader

	// pending carries calls to the receive loop in wire order; its capacity
	// bounds the pipelining window.
	pending chan *call

	// stop is closed (once) when the client breaks or closes; err is set
	// before the close and may be read after observing it.
	stop     chan struct{}
	stopOnce sync.Once
	err      error
}

// maxPipelined bounds the client-side in-flight window per connection.
const maxPipelined = 256

// Dial connects to a server address. Unless WithCodec says otherwise it
// negotiates binary framing (one extra round-trip inside Dial) and falls
// back to JSON v1 when the server does not speak v2.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("anonymizer: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		major:   ProtocolMajor,
		pending: make(chan *call, maxPipelined),
		stop:    make(chan struct{}),
	}
	if cfg.codec != CodecJSON {
		binary, leftover, err := negotiateBinary(conn)
		if err != nil {
			_ = conn.Close()
			return nil, err
		}
		if binary {
			c.major = ProtocolBinaryMajor
			c.recvR = leftover
		} else if cfg.codec == CodecBinary {
			_ = conn.Close()
			return nil, fmt.Errorf("anonymizer: dial %s: server does not speak the binary protocol (v%d)",
				addr, ProtocolBinaryMajor)
		} else {
			c.recvLeftover = leftover
		}
	}
	if c.recvR == nil {
		c.enc = json.NewEncoder(c.bw)
	}
	go c.recvLoop()
	return c, nil
}

// negotiateBinary performs the binary upgrade handshake on a fresh
// connection: send {"v":2,"op":"ping"}, read the JSON reply. An OK reply
// stamped v>=2 commits both directions to binary framing, and the
// returned reader is positioned on the first frame byte; any rejection
// (a v1 server answers its in-band version error) means the connection
// simply stays JSON, with the decoder's read-ahead handed back so no
// pipelined bytes are lost. The handshake runs under a deadline so a
// wedged server fails the Dial instead of hanging it.
func negotiateBinary(conn net.Conn) (ok bool, leftover *bufio.Reader, err error) {
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	enc := json.NewEncoder(conn)
	if err := enc.Encode(Request{V: ProtocolBinaryMajor, Op: OpPing}); err != nil {
		return false, nil, fmt.Errorf("anonymizer: negotiating codec: %w", err)
	}
	dec := json.NewDecoder(conn)
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		return false, nil, fmt.Errorf("anonymizer: negotiating codec: %w", err)
	}
	rest := bufio.NewReader(io.MultiReader(dec.Buffered(), conn))
	if !resp.OK || resp.V < ProtocolBinaryMajor {
		return false, rest, nil
	}
	// The acknowledgment line ends in a newline; frames start after it.
	if err := skipUpgradeNewline(rest); err != nil {
		return false, nil, fmt.Errorf("anonymizer: negotiating codec: %w", err)
	}
	return true, rest, nil
}

// recvLoop reads responses in order and completes the pending calls.
func (c *Client) recvLoop() {
	var dec *json.Decoder
	var recvBuf []byte
	if c.recvR == nil {
		src := io.Reader(c.conn)
		if c.recvLeftover != nil {
			src = io.MultiReader(c.recvLeftover, c.conn)
		}
		dec = json.NewDecoder(src)
	}
	for {
		var cl *call
		select {
		case cl = <-c.pending:
		case <-c.stop:
			return
		}
		var resp Response
		var err error
		if dec != nil {
			err = dec.Decode(&resp)
		} else {
			var payload []byte
			if payload, err = readWireFrame(c.recvR, recvBuf[:0]); err == nil {
				err = decodeResponse(payload, &resp)
				recvBuf = trimWireBuf(payload)
			}
		}
		if err != nil {
			select {
			case <-c.stop:
				// Close/fail won the race and broke the connection under
				// us: report the sticky error (e.g. ErrClientClosed), not
				// the secondary net-closed decode error.
				err = c.err
			default:
				err = fmt.Errorf("anonymizer: receive: %w", err)
			}
			// The call may be recycled the moment its token lands; the
			// local err stays valid for fail below.
			cl.err = err
			cl.done <- struct{}{}
			c.fail(err)
			return
		}
		cl.resp = &resp
		cl.done <- struct{}{}
	}
}

// fail marks the client broken: it records the sticky error, releases every
// waiter via the stop channel and closes the connection.
func (c *Client) fail(err error) {
	c.stopOnce.Do(func() {
		c.err = err
		close(c.stop)
		_ = c.conn.Close()
	})
}

// Close closes the connection. In-flight calls fail with ErrClientClosed
// unless their response already arrived.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// send encodes one request and registers its call slot, preserving the
// send order / pending order correspondence the wire protocol relies on.
// Every request is stamped with the connection's negotiated protocol
// major. Requests leave in as few writes as a burst of callers allows:
// a sender flushes unless another caller is waiting to send, and before
// it waits for a slot in a full window — the slots free as responses
// arrive, and no response comes for a request still in the buffer.
func (c *Client) send(req *Request) (*call, error) {
	req.V = c.major
	cl := getCall()
	c.sendWaiters.Add(1)
	c.sendMu.Lock()
	c.sendWaiters.Add(-1)
	defer c.sendMu.Unlock()
	select {
	case <-c.stop:
		putCall(cl) // never enqueued: ours alone, safe to recycle
		return nil, c.err
	default:
	}
	select {
	case c.pending <- cl:
	default:
		if err := c.bw.Flush(); err != nil {
			putCall(cl) // never enqueued
			return nil, c.sendFailed(err)
		}
		select {
		case c.pending <- cl:
		case <-c.stop:
			putCall(cl) // the enqueue lost to stop: still ours alone
			return nil, c.err
		}
	}
	err := c.encode(req)
	if err == nil && c.sendWaiters.Load() == 0 {
		err = c.bw.Flush()
	}
	if err != nil {
		return nil, c.sendFailed(err)
	}
	return cl, nil
}

// sendFailed breaks the client on a send error and returns the error.
func (c *Client) sendFailed(err error) error {
	err = fmt.Errorf("anonymizer: send: %w", err)
	c.fail(err)
	return err
}

// encode buffers one request in the connection's codec. Callers hold
// sendMu, which also guards the binary scratch buffer.
func (c *Client) encode(req *Request) error {
	if c.enc != nil {
		return c.enc.Encode(req)
	}
	framed, err := appendWireFrame(c.sendBuf[:0], func(b []byte) []byte {
		return appendRequest(b, req)
	})
	if err != nil {
		return err
	}
	c.sendBuf = trimWireBuf(framed)
	_, err = c.bw.Write(framed)
	return err
}

// roundTrip sends one request and waits for its response.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	cl, err := c.send(req)
	if err != nil {
		return nil, err
	}
	select {
	case <-cl.done:
	case <-c.stop:
		// The client broke while we waited — but our response may have
		// been completed just before, so prefer it if present.
		select {
		case <-cl.done:
		default:
			// No token: the receive loop still owns the call, so it
			// cannot be recycled.
			return nil, c.err
		}
	}
	resp, rerr := cl.resp, cl.err
	putCall(cl)
	if rerr != nil {
		return nil, rerr
	}
	if !resp.OK {
		return nil, remoteError(resp)
	}
	return resp, nil
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpPing})
	return err
}

// Auth authenticates the connection as a tenant (shared-token credential
// from the server's tenants file). Call it first, before any other
// operation: on servers with authentication enabled, an unauthenticated
// connection may issue nothing but ping and auth. Authentication is per
// connection.
func (c *Client) Auth(tenant, token string) error {
	_, err := c.roundTrip(&Request{Op: OpAuth, Tenant: tenant, Token: token})
	return err
}

// Anonymize requests a cloak for the user's segment under the profile and
// algorithm ("RGE" or "RPLE"). The server generates and retains the keys;
// the returned registration ID scopes later key requests. The
// registration's lifetime is the server's default (AnonymizeTTL bounds it
// explicitly).
func (c *Client) Anonymize(
	user roadnet.SegmentID,
	prof profile.Profile,
	algorithm string,
) (string, *cloak.CloakedRegion, error) {
	return c.AnonymizeTTL(user, prof, algorithm, 0)
}

// ttlMillis converts a TTL to its wire encoding, rounding sub-millisecond
// magnitudes away from zero: 0 on the wire means "server default", so a
// short positive TTL must never truncate into an unbounded lifetime, and
// a (nonsensical) negative one must still reach the server's validation
// rather than silently becoming the default.
func ttlMillis(ttl time.Duration) int64 {
	ms := ttl.Milliseconds()
	if ms == 0 && ttl != 0 {
		if ttl > 0 {
			return 1
		}
		return -1
	}
	return ms
}

// AnonymizeTTL is Anonymize with an explicit registration lifetime: after
// ttl elapses the server expires the registration — keys gone, region id
// unknown — exactly as if it had been deregistered. The wire carries
// whole milliseconds (sub-millisecond remainders truncate; a positive ttl
// under 1ms rounds up to it); 0 leaves the lifetime to the server's
// configured default.
func (c *Client) AnonymizeTTL(
	user roadnet.SegmentID,
	prof profile.Profile,
	algorithm string,
	ttl time.Duration,
) (string, *cloak.CloakedRegion, error) {
	resp, err := c.roundTrip(&Request{
		Op:          OpAnonymize,
		UserSegment: user,
		Profile:     &prof,
		Algorithm:   algorithm,
		TTLMillis:   ttlMillis(ttl),
	})
	if err != nil {
		return "", nil, err
	}
	if resp.Region == nil {
		return "", nil, fmt.Errorf("%w: response without region", ErrRemote)
	}
	return resp.RegionID, resp.Region, nil
}

// GetRegion fetches the public region of a registration.
func (c *Client) GetRegion(regionID string) (*cloak.CloakedRegion, int, error) {
	resp, err := c.roundTrip(&Request{Op: OpGetRegion, RegionID: regionID})
	if err != nil {
		return nil, 0, err
	}
	if resp.Region == nil {
		return nil, 0, fmt.Errorf("%w: response without region", ErrRemote)
	}
	return resp.Region, resp.Levels, nil
}

// SetTrust entitles a requester to reduce the region down to toLevel
// (owner-side operation).
func (c *Client) SetTrust(regionID, requester string, toLevel int) error {
	_, err := c.roundTrip(&Request{
		Op:        OpSetTrust,
		RegionID:  regionID,
		Requester: requester,
		ToLevel:   toLevel,
	})
	return err
}

// Reduce asks the server to peel the region down to the finest level the
// requester is entitled to, or to toLevel if that is coarser. The keys
// stay on the server; only the reduced region crosses the wire. It returns
// the reduced region and the level actually reached.
func (c *Client) Reduce(regionID, requester string, toLevel int) (*cloak.CloakedRegion, int, error) {
	resp, err := c.roundTrip(&Request{
		Op:        OpReduce,
		RegionID:  regionID,
		Requester: requester,
		ToLevel:   toLevel,
	})
	if err != nil {
		return nil, 0, err
	}
	if resp.Region == nil {
		return nil, 0, fmt.Errorf("%w: response without region", ErrRemote)
	}
	if resp.Level == nil {
		return nil, 0, fmt.Errorf("%w: response without level", ErrRemote)
	}
	return resp.Region, *resp.Level, nil
}

// Deregister removes a registration (owner-side operation): the server
// destroys the keys, ending the region's recoverability for every
// requester. On a durable server the removal survives restarts.
func (c *Client) Deregister(regionID string) error {
	_, err := c.roundTrip(&Request{Op: OpDeregister, RegionID: regionID})
	return err
}

// Backup fetches a hot backup of the server's durable registration store
// and writes the archive to w, returning the byte count. The archive is
// self-verifying (RestoreArchive rejects any truncation or corruption) and
// restores with `anonymizer restore`. Servers without a durable store
// reject the operation. Responses can be large: prefer a dedicated
// connection over one carrying pipelined traffic.
func (c *Client) Backup(w io.Writer) (int64, error) {
	return c.backup(w, &Request{Op: OpBackup})
}

// backup runs one backup request and writes the archive it returns to w.
func (c *Client) backup(w io.Writer, req *Request) (int64, error) {
	resp, err := c.roundTrip(req)
	if err != nil {
		return 0, err
	}
	if len(resp.Archive) == 0 {
		return 0, fmt.Errorf("%w: response without archive", ErrRemote)
	}
	n, err := w.Write(resp.Archive)
	if err != nil {
		return int64(n), fmt.Errorf("anonymizer: writing backup: %w", err)
	}
	return int64(n), nil
}

// Touch renews a live registration's lease (owner-side): the expiry
// becomes ttl from now (0 selects the server's default TTL; with no
// default either, the bound is cleared). It returns the new expiry
// instant (zero when the bound was cleared). Mobile clients re-reporting
// their location call this instead of re-registering.
func (c *Client) Touch(regionID string, ttl time.Duration) (time.Time, error) {
	resp, err := c.roundTrip(&Request{
		Op:        OpTouch,
		RegionID:  regionID,
		TTLMillis: ttlMillis(ttl),
	})
	if err != nil {
		return time.Time{}, err
	}
	if resp.ExpiresAtMillis == 0 {
		return time.Time{}, nil
	}
	return time.UnixMilli(resp.ExpiresAtMillis).UTC(), nil
}

// BackupSince fetches an incremental backup: only the log records after
// since (the watermark of an earlier backup), as an archive for
// `anonymizer restore -apply` / ApplyIncremental / ApplyDelta. A
// watermark older than the oldest record the server still holds is
// refused (ErrRemote wrapping a stream gap): take a full backup instead.
// A replication follower names itself in follower (its advertised
// address) and polls from its durable watermark, which the leader then
// records as its ack; other callers pass "".
func (c *Client) BackupSince(w io.Writer, since uint64, follower string) (int64, error) {
	return c.backup(w, &Request{Op: OpBackup, Since: strconv.FormatUint(since, 10), Follower: follower})
}

// SubscribeInfo is the leader's half of the replication handshake.
type SubscribeInfo struct {
	// Epoch is the leader's replication epoch, which the follower
	// records as its own.
	Epoch uint64
	// Watermark is the leader's stream position at subscription.
	Watermark uint64
}

// ReplSubscribe performs the replication handshake: epoch is the
// subscriber's last known leader epoch (0 for a fresh bootstrap),
// wasLeader whether its data directory claims leadership of that epoch,
// follower its advertised address, and wm its current position. A fenced
// rejection (stale leader rejoining, or the polled node itself stale)
// surfaces as ErrRemote.
func (c *Client) ReplSubscribe(epoch uint64, wasLeader bool, follower string, wm uint64) (*SubscribeInfo, error) {
	resp, err := c.roundTrip(&Request{
		Op:        OpReplSubscribe,
		Epoch:     epoch,
		WasLeader: wasLeader,
		Follower:  follower,
		Watermark: wm,
	})
	if err != nil {
		return nil, err
	}
	if resp.Epoch == 0 {
		return nil, fmt.Errorf("%w: malformed subscribe response", ErrRemote)
	}
	return &SubscribeInfo{Epoch: resp.Epoch, Watermark: resp.Watermark}, nil
}

// ReplStatus fetches the node's replication status document.
func (c *Client) ReplStatus() (*ReplStatus, error) {
	resp, err := c.roundTrip(&Request{Op: OpReplStatus})
	if err != nil {
		return nil, err
	}
	if resp.Repl == nil {
		return nil, fmt.Errorf("%w: response without repl status", ErrRemote)
	}
	return resp.Repl, nil
}

// Promote promotes the connected follower to leader and returns its new
// epoch. Issue it only once the old leader is confirmed dead: the bumped
// epoch fences the old leader out, it does not stop a live one.
func (c *Client) Promote() (uint64, error) {
	resp, err := c.roundTrip(&Request{Op: OpReplPromote})
	if err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// RequestKeys fetches the keys the requester is entitled to, decoded into
// the level->key map that cloak.Engine.Deanonymize consumes.
func (c *Client) RequestKeys(regionID, requester string) (map[int][]byte, error) {
	resp, err := c.roundTrip(&Request{
		Op:        OpRequestKeys,
		RegionID:  regionID,
		Requester: requester,
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int][]byte, len(resp.Keys))
	for lv, encKey := range resp.Keys {
		raw, err := hex.DecodeString(encKey)
		if err != nil {
			return nil, fmt.Errorf("%w: bad key encoding for level %d", ErrRemote, lv)
		}
		out[lv] = raw
	}
	return out, nil
}
