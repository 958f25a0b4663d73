// Package anonymizer implements the trusted anonymization server of the
// ReverseCloak toolkit and its client: "the 'Anonymizer' sends the
// parameters and access keys to a trusted anonymization server and
// visualizes the results". The server holds the road network and live user
// densities, performs cloaking, stores each registration's keys, and
// answers key requests according to the data owner's personal
// access-control profile. De-anonymization itself runs client-side: data
// requesters fetch the region and their granted keys, then peel levels
// locally.
//
// The wire protocol is newline-delimited JSON over TCP, one request and one
// response per line. Responses on a connection arrive in request order, so
// clients may pipeline: send several requests without waiting, then read
// the responses back in sequence. Batch operations (anonymize_batch,
// reduce_batch) additionally amortize one round-trip over many items.
// docs/PROTOCOL.md is the authoritative wire specification.
//
// Registrations live in one store (DurableStore). Opened over a data
// directory it journals every mutation to a write-ahead log and recovers
// it on restart, so the reversibility of every acknowledged region
// survives a crash; a server given no store keeps its registrations in a
// journal-less one, in memory only.
package anonymizer

import (
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// ProtocolMajor is the JSON wire protocol's major version. Requests
// carry it in their "v" field; the server rejects majors it does not
// speak, so the format can evolve incompatibly without silently
// mis-parsing, and a request without a version (v absent or 0) is
// treated as major 1 for compatibility with clients that predate
// versioning. Responses echo the connection's negotiated major.
const ProtocolMajor = 1

// ProtocolBinaryMajor is the binary framing protocol's major version
// (v2). A connection always starts as newline-delimited JSON; a request
// carrying v=2 commits it to binary framing: the server acknowledges in
// JSON ({"v":2,"ok":true}) and every byte after the two newline-
// terminated lines is CRC-framed binary messages in both directions
// (codec.go, codec_binary.go; docs/PROTOCOL.md "Binary framing (v2)").
// Servers keep speaking both majors; clients choose per connection.
const ProtocolBinaryMajor = 2

// Op names the protocol operations.
type Op string

// Protocol operations.
const (
	// OpPing checks liveness.
	OpPing Op = "ping"
	// OpAuth authenticates the connection as a tenant (shared-token
	// credential from the server's tenants file) and stamps the
	// connection's principal: every later request on the connection runs
	// under that tenant's capability grant and rate budget. On servers
	// with authentication enabled, an unauthenticated connection may
	// issue nothing but ping and auth. Issue it first, right after any
	// version probing; re-authenticating switches the principal.
	OpAuth Op = "auth"
	// OpAnonymize registers a cloaking request: the server generates the
	// per-level keys, cloaks, stores the registration and returns the
	// public region.
	OpAnonymize Op = "anonymize"
	// OpGetRegion fetches the public cloaked region of a registration (the
	// LBS provider's view).
	OpGetRegion Op = "get_region"
	// OpSetTrust updates the owner's access-control profile for one
	// requester.
	OpSetTrust Op = "set_trust"
	// OpRequestKeys asks for the keys a requester is entitled to.
	OpRequestKeys Op = "request_keys"
	// OpReduce reduces a registered region server-side on behalf of a
	// requester: the server grants the keys the requester is entitled to
	// and peels the region down to max(entitled level, requested to_level),
	// returning the finer region without ever shipping keys.
	OpReduce Op = "reduce"
	// OpAnonymizeBatch registers many cloaking requests in one round-trip.
	// The per-item requests ride in Batch; the per-item responses come back
	// in Batch, index-aligned with the request.
	OpAnonymizeBatch Op = "anonymize_batch"
	// OpReduceBatch performs many reduce operations in one round-trip,
	// index-aligned like OpAnonymizeBatch.
	OpReduceBatch Op = "reduce_batch"
	// OpDeregister removes a registration (owner-side): the server
	// destroys the keys and the region can never be reduced again.
	OpDeregister Op = "deregister"
	// OpBackup streams a consistent hot backup of the server's durable
	// registration store: the response's archive field carries a complete
	// CRC-framed backup archive (base64 on the wire), restorable with
	// `anonymizer restore`. With a "since" watermark the archive is
	// incremental: only the mutation records after that position, for
	// `anonymizer restore -apply`. Servers whose store is not durable
	// reject the op. This is an operator endpoint: responses can be
	// large, so take backups on a dedicated connection rather than a
	// pipelined one.
	OpBackup Op = "backup"
	// OpTouch renews a live registration's lease (owner-side): the expiry
	// becomes ttl_ms from now (0 selects the server's default TTL), so
	// mobile clients that periodically re-report their location extend
	// the registration they hold instead of re-registering. The renewal
	// is journaled and replicated like every other mutation.
	OpTouch Op = "touch"
	// OpReplSubscribe is the replication handshake: a follower presents
	// its epoch record and watermark; the leader fences stale peers (a
	// data dir that led an older epoch must re-bootstrap; a peer that
	// knows a newer epoch means THIS node is stale) and returns its
	// epoch, shard count and current watermark.
	OpReplSubscribe Op = "repl_subscribe"
	// OpReplFrames polls the leader's mutation stream: the request names
	// the subscribed epoch and the follower's watermark; the response
	// carries the per-shard records after it, in stream order.
	OpReplFrames Op = "repl_frames"
	// OpReplAck reports a follower's durably applied watermark, feeding
	// the leader's replication-lag accounting (repl_status).
	OpReplAck Op = "repl_ack"
	// OpReplStatus reports the node's replication state: role, epoch,
	// watermark, follower lag (leader) or leader address and backlog
	// (follower). Works on any server with a durable store.
	OpReplStatus Op = "repl_status"
	// OpReplPromote promotes a follower to leader: the apply loop stops,
	// the epoch advances past the old leader's, and the node starts
	// accepting writes. Issued by `anonymizer promote` after the old
	// leader is confirmed dead; the bumped epoch fences it permanently.
	OpReplPromote Op = "repl_promote"
)

// Request is one protocol request.
type Request struct {
	// V is the protocol major version (0 means 1; see ProtocolMajor).
	// Versioning is per-request framing: batch items carry no version of
	// their own.
	V  int `json:"v,omitempty"`
	Op Op  `json:"op"`
	// Anonymize.
	UserSegment roadnet.SegmentID `json:"user_segment,omitempty"`
	Profile     *profile.Profile  `json:"profile,omitempty"`
	Algorithm   string            `json:"algorithm,omitempty"` // "RGE" or "RPLE"
	// TTLMillis bounds the registration's lifetime in milliseconds
	// (anonymize only): after it elapses the region id behaves exactly as
	// if deregistered. 0 leaves the lifetime to the server's configured
	// default; negative is an error.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// Region-scoped operations.
	RegionID string `json:"region_id,omitempty"`
	// Access control. ToLevel is the trust level for OpSetTrust and the
	// requested target level for OpReduce.
	Requester string `json:"requester,omitempty"`
	ToLevel   int    `json:"to_level,omitempty"`
	// Batch carries the per-item requests of a batch operation. Each item
	// uses the same fields as the corresponding single operation; its Op
	// field is ignored.
	Batch []Request `json:"batch,omitempty"`
	// Replication fields. Epoch is the peer's replication epoch
	// (repl_subscribe: the subscriber's last known leader epoch, 0 for a
	// fresh bootstrap; repl_frames/repl_ack: the subscribed epoch).
	// WasLeader marks a subscriber whose data directory claims
	// leadership of Epoch — the fencing input. Follower is the
	// subscriber's advertised address (for the leader's lag accounting).
	// Watermark is the per-shard stream position the peer holds
	// (repl_frames: fetch after it; repl_ack: durably applied up to it).
	// MaxFrames bounds one repl_frames response (0 = server default).
	Epoch     uint64   `json:"epoch,omitempty"`
	WasLeader bool     `json:"was_leader,omitempty"`
	Follower  string   `json:"follower,omitempty"`
	Watermark []uint64 `json:"watermark,omitempty"`
	MaxFrames int      `json:"max_frames,omitempty"`
	// Since is the watermark of an earlier backup (the String spelling,
	// e.g. "12,0,7"): the backup op then ships only the records after
	// it, as an incremental archive.
	Since string `json:"since,omitempty"`
	// Auth credentials (OpAuth): the tenant name and its shared token
	// from the server's tenants file.
	Tenant string `json:"tenant,omitempty"`
	Token  string `json:"token,omitempty"`
}

// Response is one protocol response.
type Response struct {
	// V is the server's protocol major (set on top-level responses; batch
	// items carry no version of their own).
	V     int    `json:"v,omitempty"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the machine-readable class of a trust-boundary rejection:
	// "auth_required", "auth_failed", "denied" or "throttled". Ordinary
	// errors carry no code.
	Code string `json:"code,omitempty"`
	// Auth: the authenticated tenant's name and capability grant.
	Tenant string   `json:"tenant,omitempty"`
	Caps   []string `json:"caps,omitempty"`
	// Anonymize / GetRegion.
	RegionID string               `json:"region_id,omitempty"`
	Region   *cloak.CloakedRegion `json:"region,omitempty"`
	Levels   int                  `json:"levels,omitempty"`
	// ExpiresAtMillis reports the registration's expiry instant (unix
	// milliseconds) when the anonymize request carried a TTL; 0 when the
	// request did not bound the lifetime itself.
	ExpiresAtMillis int64 `json:"expires_at_ms,omitempty"`
	// Reduce: the privacy level actually reached. A pointer so that level 0
	// (exact location) stays distinguishable from "no level" on the wire:
	// omitempty drops only the nil pointer, while reduce responses always
	// carry an explicit value, including 0.
	Level *int `json:"level,omitempty"`
	// RequestKeys: hex-encoded keys by level index.
	Keys map[int]string `json:"keys,omitempty"`
	// Backup: the complete backup archive (encoding/json renders []byte
	// as base64 on the wire).
	Archive []byte `json:"archive,omitempty"`
	// Batch carries the per-item responses of a batch operation,
	// index-aligned with the request's Batch. The outer OK reports
	// transport-level success; per-item failures are per-item responses
	// with OK=false.
	Batch []Response `json:"batch,omitempty"`
	// Leader is set on write requests refused by a replication follower:
	// the address writes should be retried against. Clients with leader
	// routing follow it transparently.
	Leader string `json:"leader,omitempty"`
	// Replication fields: the node's epoch and shard count
	// (repl_subscribe), its current watermark (repl_subscribe,
	// repl_frames), the shipped stream records (repl_frames), and the
	// full status document (repl_status).
	Epoch     uint64        `json:"epoch,omitempty"`
	Shards    int           `json:"shards,omitempty"`
	Watermark []uint64      `json:"watermark,omitempty"`
	Frames    []StreamFrame `json:"frames,omitempty"`
	Repl      *ReplStatus   `json:"repl,omitempty"`

	// levelVal is the allocation-free backing for Level on pooled
	// responses: handlers point Level at it instead of heap-allocating a
	// fresh int per reduce. Neither codec reads it.
	levelVal int
	// pooled marks a response obtained from respPool; the connection
	// writer recycles it after encoding. Responses that escape the writer
	// (batch items are copied by value) are left to the GC.
	pooled bool
}
