// Package reversecloak is a reversible multi-level location privacy
// protection system over road networks, reproducing Li, Palanisamy,
// Kalaivanan and Raghunathan, "ReverseCloak: A Reversible Multi-level
// Location Privacy Protection System" (ICDCS 2017) and the underlying
// algorithms of Li and Palanisamy (CIKM 2015).
//
// ReverseCloak perturbs a mobile user's exact road segment into a cloaking
// region that is location k-anonymous and segment l-diverse. Unlike
// conventional one-way cloaking, the region is built by keyed pseudo-random
// expansion: every added segment is chosen by a per-level secret key, so a
// data requester holding the keys of the upper privacy levels can peel them
// off to obtain a finer region — down to the exact segment with all keys —
// while without the keys the region reveals nothing more, even to an
// adversary that knows the algorithm.
//
// # Quick start
//
//	g, _ := reversecloak.GenerateMap(reversecloak.MapConfig{
//		Junctions: 400, Segments: 527, Seed: seed,
//	})
//	sim, _ := reversecloak.NewSimulation(g, reversecloak.WorkloadConfig{
//		Cars: 2000, Seed: seed,
//	})
//	engine, _ := reversecloak.NewRGEEngine(g, sim.UsersOn)
//	keys, _ := reversecloak.AutoGenerateKeys(3)
//	region, _, _ := engine.Anonymize(reversecloak.Request{
//		UserSegment: userSeg,
//		Profile:     reversecloak.DefaultProfile(),
//		Keys:        keys.All(),
//	})
//	// A requester holding keys 2 and 3 reduces the region to level 1:
//	grant, _ := keys.Grant(1)
//	finer, _ := engine.Deanonymize(region, grant, 1)
//
// The package is a façade: the implementation lives in internal packages
// (roadnet, cloak, trace, ...) and is re-exported here as one coherent,
// documented surface.
package reversecloak

import (
	"io"
	"time"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/anonymizer/repl"
	"github.com/reversecloak/reversecloak/internal/anonymizer/tenant"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/geom"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/query"
	"github.com/reversecloak/reversecloak/internal/regcache"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/temporal"
	"github.com/reversecloak/reversecloak/internal/trace"
	"github.com/reversecloak/reversecloak/internal/viz"
)

// Core geometric and road-network types.
type (
	// Point is a planar map coordinate in meters.
	Point = geom.Point
	// BBox is an axis-aligned bounding box.
	BBox = geom.BBox
	// Graph is an immutable road network of junctions and segments.
	Graph = roadnet.Graph
	// GraphBuilder assembles road networks.
	GraphBuilder = roadnet.Builder
	// SegmentID identifies a road segment.
	SegmentID = roadnet.SegmentID
	// JunctionID identifies a junction.
	JunctionID = roadnet.JunctionID
	// Segment is one road segment.
	Segment = roadnet.Segment
	// Junction is one road intersection.
	Junction = roadnet.Junction
)

// Cloaking types.
type (
	// Engine anonymizes and de-anonymizes locations.
	Engine = cloak.Engine
	// Request is one anonymization request.
	Request = cloak.Request
	// CloakedRegion is the published multi-level cloak.
	CloakedRegion = cloak.CloakedRegion
	// LevelMeta is the public per-level metadata.
	LevelMeta = cloak.LevelMeta
	// Algorithm selects RGE or RPLE.
	Algorithm = cloak.Algorithm
	// DensityFunc reports users per segment.
	DensityFunc = cloak.DensityFunc
	// Preassignment holds RPLE's pre-assigned transition lists.
	Preassignment = cloak.Preassignment
	// TransitionTable is the RGE transition table (Fig. 2).
	TransitionTable = cloak.TransitionTable
	// Trace is the anonymizer-side audit record (never publish it).
	Trace = cloak.Trace
)

// Profile and key management types.
type (
	// Profile is a user-defined multi-level privacy profile.
	Profile = profile.Profile
	// Level is one level's (k, l, sigma_s) requirement.
	Level = profile.Level
	// KeySet holds per-level anonymization keys.
	KeySet = keys.Set
	// Keyring holds master secrets by epoch and derives per-registration
	// cloak keys from them (HKDF over the registration ID), so stores can
	// record a key reference instead of key material.
	Keyring = keys.Keyring
)

// Workload types.
type (
	// Simulation is a GTMobiSim-style mobile user simulation.
	Simulation = trace.Simulation
	// WorkloadConfig configures a simulation.
	WorkloadConfig = trace.Config
	// Car is one simulated mobile user.
	Car = trace.Car
)

// Map generation types.
type (
	// MapConfig configures synthetic road-network generation.
	MapConfig = mapgen.Config
)

// Service types.
type (
	// Server is the trusted anonymization server.
	Server = anonymizer.Server
	// ServerOption customizes a Server (store, workers, batch limits,
	// tenants, read cache).
	ServerOption = anonymizer.ServerOption
	// Registration is the server-side secret state of one cloaked
	// location (an opaque handle outside internal code).
	Registration = anonymizer.Registration
	// DurableStore is the registration store: crash-safe (WAL + snapshots)
	// when opened over a directory, journal-less when opened without one.
	DurableStore = anonymizer.DurableStore
	// DurabilityOption tunes a DurableStore (shard count, TTLs, master
	// keyring, fsync policy, snapshot cadence).
	DurabilityOption = anonymizer.DurabilityOption
	// FsyncPolicy selects when WAL appends are forced to disk.
	FsyncPolicy = anonymizer.FsyncPolicy
	// ReduceCacheStats snapshots the read-path cache counters
	// (Server.ReduceCacheStats, /metrics anonymizer_reduce_cache_*).
	ReduceCacheStats = regcache.Stats
	// RecoveryStats describes what OpenDurableStore found on disk.
	RecoveryStats = anonymizer.RecoveryStats
	// ReshardStats describes what an offline Reshard migration moved.
	ReshardStats = anonymizer.ReshardStats
	// Client talks to a Server; it is safe for concurrent use and
	// pipelines concurrent calls over one connection.
	Client = anonymizer.Client
	// AnonymizeSpec is one item of a Client.AnonymizeBatch call.
	AnonymizeSpec = anonymizer.AnonymizeSpec
	// AnonymizeResult is one item of a Client.AnonymizeBatch response.
	AnonymizeResult = anonymizer.AnonymizeResult
	// ReduceSpec is one item of a Client.ReduceBatch call.
	ReduceSpec = anonymizer.ReduceSpec
	// ReduceResult is one item of a Client.ReduceBatch response.
	ReduceResult = anonymizer.ReduceResult
	// ClientOption customizes a Client (leader routing).
	ClientOption = anonymizer.ClientOption
	// RemoteError is the concrete error behind ErrRemote: it carries the
	// server's machine-readable rejection code (auth_required,
	// auth_failed, denied, throttled) alongside the message.
	RemoteError = anonymizer.RemoteError
)

// Multi-tenant trust-boundary types.
type (
	// TenantRegistry is the hot-reloadable tenant table loaded from a
	// tenants file: authentication, capability grants, rate limits and
	// usage accounting. Install into a server with WithTenants.
	TenantRegistry = tenant.Registry
	// Tenant is one authenticated principal's grants and limits.
	Tenant = tenant.Tenant
	// TenantUsage is one tenant's usage counters in a usage snapshot.
	TenantUsage = tenant.TenantUsage
	// AdminConfig tunes the admin HTTP handler (readiness lag bound).
	AdminConfig = anonymizer.AdminConfig
)

// Replication and stream types.
type (
	// Watermark is a per-shard mutation-stream position ("12,0,7" on the
	// CLI); backups report one and incremental backups start after one.
	Watermark = anonymizer.Watermark
	// StreamFrame is one shipped mutation record of the replication
	// stream.
	StreamFrame = anonymizer.StreamFrame
	// IncrementalStats describes what an incremental backup or apply
	// moved.
	IncrementalStats = anonymizer.IncrementalStats
	// Replicator is the follower-side state a server consults (role,
	// leader address, lag, promotion); *Follower implements it.
	Replicator = anonymizer.Replicator
	// ReplStatus is the repl_status document (role, epoch, watermark,
	// lag).
	ReplStatus = anonymizer.ReplStatus
	// FollowerStatus is one subscribed follower in a leader's ReplStatus.
	FollowerStatus = anonymizer.FollowerStatus
	// Follower replicates a leader's mutation stream into a local durable
	// store and can be promoted to leader.
	Follower = repl.Follower
	// FollowerConfig configures StartFollower.
	FollowerConfig = repl.Config
)

// Query types.
type (
	// POI is a point of interest.
	POI = query.POI
	// POIIndex answers range queries over POIs.
	POIIndex = query.Index
)

// Visualization types.
type (
	// RenderLayer is one set of segments drawn with a glyph/color.
	RenderLayer = viz.Layer
)

// Temporal cloaking types.
type (
	// TemporalCloak reversibly coarsens timestamps through keyed tolerance
	// windows (the sigma_t / Kt dimension of Algorithm 1).
	TemporalCloak = temporal.Cloak
	// TemporalLevel is one temporal privacy level (key + window).
	TemporalLevel = temporal.Level
)

// Algorithms.
const (
	// RGE is Reversible Global Expansion.
	RGE = cloak.RGE
	// RPLE is Reversible Pre-assignment-based Local Expansion.
	RPLE = cloak.RPLE
)

// Fsync policies for the durable registration store.
const (
	// FsyncAlways syncs every WAL append before acknowledging it: no
	// acked registration is ever lost to a crash.
	FsyncAlways = anonymizer.FsyncAlways
	// FsyncInterval (the default) syncs dirty shards on a background
	// period: bounded loss window, near-in-memory throughput.
	FsyncInterval = anonymizer.FsyncInterval
	// FsyncNever leaves flushing to the OS: survives process crashes
	// only.
	FsyncNever = anonymizer.FsyncNever
)

// Registration lifecycle defaults and protocol constants.
const (
	// DefaultRegistrationTTL is the registration lifetime `anonymizer
	// serve` applies by default, derived from the temporal cloak's
	// default coarsest tolerance window.
	DefaultRegistrationTTL = anonymizer.DefaultRegistrationTTL
	// DefaultGCInterval is the default period of the expiry sweeper.
	DefaultGCInterval = anonymizer.DefaultGCInterval
	// ProtocolMajor is the wire protocol's major version; servers reject
	// requests from a future major.
	ProtocolMajor = anonymizer.ProtocolMajor
	// DefaultReadyMaxLag is the follower backlog (in stream records)
	// beyond which the admin listener's /readyz turns unready.
	DefaultReadyMaxLag = anonymizer.DefaultReadyMaxLag
)

// Re-exported sentinel errors for errors.Is checks at the API boundary.
var (
	// ErrCloakFailed reports an unsatisfiable privacy level.
	ErrCloakFailed = cloak.ErrCloakFailed
	// ErrMissingKey reports de-anonymization without a required key.
	ErrMissingKey = cloak.ErrMissingKey
	// ErrIrreversible reports a failed reversal (wrong key or tampering).
	ErrIrreversible = cloak.ErrIrreversible
	// ErrRemote reports a server-side error surfaced by a Client call.
	ErrRemote = anonymizer.ErrRemote
	// ErrServerClosed reports use of a closed anonymization server.
	ErrServerClosed = anonymizer.ErrServerClosed
	// ErrClientClosed reports use of (or a call interrupted by) a closed
	// Client.
	ErrClientClosed = anonymizer.ErrClientClosed
	// ErrStoreClosed reports use of a closed store.
	ErrStoreClosed = anonymizer.ErrStoreClosed
	// ErrVersion reports a request whose protocol major the server does
	// not speak.
	ErrVersion = anonymizer.ErrVersion
	// ErrBadArchive reports a truncated or corrupted backup archive;
	// RestoreArchive never touches the destination once it is returned.
	ErrBadArchive = anonymizer.ErrBadArchive
	// ErrUnsupportedLayout reports a data directory whose META.json names
	// a layout version this binary does not read; nothing in the
	// directory is touched. Restoring from a backup archive is the way
	// across versions.
	ErrUnsupportedLayout = anonymizer.ErrUnsupportedLayout
	// ErrNotLeader reports a mutation attempted on a replication
	// follower; the wire response names the leader to retry against.
	ErrNotLeader = anonymizer.ErrNotLeader
	// ErrStreamGap reports a stream position compacted away: the
	// consumer (lagging follower, stale incremental watermark) must
	// restart from a full backup.
	ErrStreamGap = anonymizer.ErrStreamGap
	// ErrFenced reports a replication peer rejected for epoch reasons —
	// most importantly a stale leader trying to rejoin after a failover
	// without re-bootstrapping.
	ErrFenced = anonymizer.ErrFenced
	// ErrAuthRequired reports an operation attempted on a tenant-enabled
	// server before a successful auth.
	ErrAuthRequired = anonymizer.ErrAuthRequired
	// ErrAuthFailed reports rejected credentials (bad tenant or token,
	// or a tenant revoked since the connection authenticated).
	ErrAuthFailed = anonymizer.ErrAuthFailed
	// ErrDenied reports an operation the authenticated tenant lacks the
	// capability for (including reductions below its floor).
	ErrDenied = anonymizer.ErrDenied
	// ErrThrottled reports an operation shed by the tenant's rate limit;
	// the client should back off and retry.
	ErrThrottled = anonymizer.ErrThrottled
	// ErrUnknownEpoch reports a derived-key registration whose master-key
	// epoch the keyring holds no secret for (e.g. an epoch retired while
	// registrations cut under it were still live).
	ErrUnknownEpoch = keys.ErrUnknownEpoch
)

// NewRGEEngine builds an engine using Reversible Global Expansion.
func NewRGEEngine(g *Graph, density DensityFunc) (*Engine, error) {
	return cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
}

// NewRPLEEngine builds an engine using Reversible Pre-assignment-based
// Local Expansion, computing the transition tables for the graph.
// listLength is T, the per-segment transition list length; pass 0 for the
// default.
func NewRPLEEngine(g *Graph, density DensityFunc, listLength int) (*Engine, error) {
	if listLength == 0 {
		listLength = cloak.DefaultTransitionListLength
	}
	pre, err := cloak.NewPreassignment(g, listLength)
	if err != nil {
		return nil, err
	}
	return cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RPLE, Pre: pre})
}

// GenerateMap synthesizes a road network (see MapConfig).
func GenerateMap(cfg MapConfig) (*Graph, error) { return mapgen.Generate(cfg) }

// ReadMap deserializes a road network written by Graph.WriteJSON.
func ReadMap(r io.Reader) (*Graph, error) { return roadnet.ReadJSON(r) }

// AtlantaNW generates the paper-scale evaluation network: 6,979 junctions
// and 9,187 segments, the size of the USGS Atlanta-NW extract.
func AtlantaNW(seed []byte) (*Graph, error) { return mapgen.AtlantaNW(seed) }

// SmallMap generates a ~400-junction test network with Atlanta-like
// density.
func SmallMap(seed []byte) (*Graph, error) { return mapgen.Small(seed) }

// GridMap generates an exact cols x rows grid network.
func GridMap(cols, rows int, spacing float64) (*Graph, error) {
	return mapgen.Grid(cols, rows, spacing)
}

// FigureOneMap builds the paper's Fig. 1 demonstration graph and returns
// it with the user's segment s18.
func FigureOneMap() (*Graph, SegmentID, error) { return mapgen.FigureOne() }

// NewSimulation builds a GTMobiSim-style workload over the graph.
func NewSimulation(g *Graph, cfg WorkloadConfig) (*Simulation, error) {
	return trace.New(g, cfg)
}

// AutoGenerateKeys creates fresh independent keys for the given number of
// privacy levels (the toolkit's "Auto key generation").
func AutoGenerateKeys(levels int) (*KeySet, error) { return keys.AutoGenerate(levels) }

// KeysFromHex imports keys exported by KeySet.EncodeHex.
func KeysFromHex(encoded []string) (*KeySet, error) { return keys.DecodeHex(encoded) }

// LoadMasterKeys reads a master key file ({"active": N, "epochs": {"N":
// "<hex>", ...}}) into a keyring. Call Watch to pick up epoch rotations
// from file edits, and Close when done.
func LoadMasterKeys(path string) (*Keyring, error) { return keys.LoadKeyring(path) }

// NewMasterKeys builds a keyring from in-memory master secrets, keyed by
// epoch; active selects the epoch new registrations derive under.
func NewMasterKeys(active uint32, epochs map[uint32][]byte) (*Keyring, error) {
	return keys.NewKeyring(active, epochs)
}

// WithReduceCacheBytes turns on the server's read-path cache with the
// given byte budget (n < 0 = unbounded; 0 disables it): memoized
// reductions by (region ID, level) plus derived key sets, served
// zero-copy with singleflighted misses and invalidated from the store's
// shared mutation-apply path on deregister/expiry. Reduce results are
// bit-identical with the cache on or off.
func WithReduceCacheBytes(n int64) ServerOption { return anonymizer.WithReduceCacheBytes(n) }

// WithKeyring gives a store the master keyring, which turns on derived
// per-registration keys: a server over the store derives each new
// registration's cloak keys from the keyring's active epoch instead of
// generating and storing them (durable registrations shrink to a key
// reference; rotating the master secret is an epoch bump in the key file),
// and the store resolves those references through it — so it is required
// to open (recover, restore, reshard, follow) a store holding derived
// registrations. The keyring is caller-owned.
func WithKeyring(kr *Keyring) DurabilityOption { return anonymizer.WithKeyring(kr) }

// DefaultProfile returns the toolkit's "Default setting" profile: three
// levels with doubling anonymity.
func DefaultProfile() Profile { return profile.Default() }

// UniformProfile builds an N-level profile with geometrically growing k.
func UniformProfile(levels, baseK, baseL int, sigma0 float64) Profile {
	return profile.Uniform(levels, baseK, baseL, sigma0)
}

// NewServer builds a trusted anonymization server from per-algorithm
// engines. Registrations live in the store installed with WithStore, or in
// a journal-less store of the server's own; the other options tune the
// per-connection pipelines, tenants and the read cache.
func NewServer(engines map[Algorithm]*Engine, opts ...ServerOption) (*Server, error) {
	return anonymizer.NewServer(engines, opts...)
}

// WithConnWorkers sets the server's per-connection worker pool size.
func WithConnWorkers(n int) ServerOption { return anonymizer.WithConnWorkers(n) }

// WithQueueDepth bounds the server's per-connection in-flight request
// queue (backpressure).
func WithQueueDepth(n int) ServerOption { return anonymizer.WithQueueDepth(n) }

// WithMaxBatchSize caps the number of items one batch request may carry
// (default 1024).
func WithMaxBatchSize(n int) ServerOption { return anonymizer.WithMaxBatchSize(n) }

// WithStore installs the caller-owned registration store the server
// serves from (opened with OpenDurableStore, closed by the caller after
// the server).
func WithStore(st *DurableStore) ServerOption { return anonymizer.WithStore(st) }

// OpenDurableStore opens (or initializes) a durable registration store
// rooted at dir, recovering any state a previous process left there. An
// empty dir opens a journal-less store: same lifecycle, nothing on disk,
// journal-only options inert.
func OpenDurableStore(dir string, opts ...DurabilityOption) (*DurableStore, error) {
	return anonymizer.OpenDurableStore(dir, opts...)
}

// WithFsyncPolicy selects when durable-store WAL appends reach the disk.
func WithFsyncPolicy(p FsyncPolicy) DurabilityOption { return anonymizer.WithFsyncPolicy(p) }

// WithFsyncEvery sets the background sync period used by FsyncInterval.
func WithFsyncEvery(d time.Duration) DurabilityOption { return anonymizer.WithFsyncEvery(d) }

// WithSnapshotEvery compacts a shard's WAL into a snapshot after n
// appended records (0 disables count-based compaction).
func WithSnapshotEvery(n int) DurabilityOption { return anonymizer.WithSnapshotEvery(n) }

// WithSnapshotInterval additionally compacts dirty shards on a
// background period.
func WithSnapshotInterval(d time.Duration) DurabilityOption {
	return anonymizer.WithSnapshotInterval(d)
}

// WithDurableShards sets the store's shard count (rounded up to a power
// of two). The count is fixed at directory initialization; reopening an
// existing directory keeps its original count.
func WithDurableShards(n int) DurabilityOption { return anonymizer.WithDurableShards(n) }

// WithTTL gives registrations in the store a default lifetime, journaled
// with each registration so it survives restarts (0 disables the default).
func WithTTL(d time.Duration) DurabilityOption { return anonymizer.WithTTL(d) }

// WithGCInterval sets the store's expiry sweep period (0 disables the
// sweeper).
func WithGCInterval(d time.Duration) DurabilityOption { return anonymizer.WithGCInterval(d) }

// ParseFsyncPolicy maps "always", "interval" or "never" to its policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return anonymizer.ParseFsyncPolicy(s) }

// BackupDir streams a closed durable data directory to w as one
// self-verifying CRC-framed backup archive (for live stores use
// DurableStore.WriteBackup or Client.Backup instead).
func BackupDir(w io.Writer, dir string) (int64, error) { return anonymizer.BackupDir(w, dir) }

// RestoreArchive seeds a fresh durable data directory at dir from a
// backup archive — always in the current on-disk layout, whichever
// binary took the archive — verifying framing and checksums completely
// before the directory is created; a truncated or corrupted archive
// fails with ErrBadArchive and leaves nothing behind.
func RestoreArchive(r io.Reader, dir string) error { return anonymizer.RestoreArchive(r, dir) }

// Reshard migrates a durable data directory (offline) to a new shard
// count, replaying every journaled mutation through the same apply path
// recovery uses: IDs, trust tables and TTL expiries are preserved
// exactly. Options apply to the destination store.
func Reshard(srcDir, dstDir string, shards int, opts ...DurabilityOption) (*ReshardStats, error) {
	return anonymizer.Reshard(srcDir, dstDir, shards, opts...)
}

// ParseWatermark parses the CLI spelling of a stream watermark
// (comma-separated per-shard offsets, e.g. "12,0,7").
func ParseWatermark(s string) (Watermark, error) { return anonymizer.ParseWatermark(s) }

// ArchiveWatermark scans a backup archive (full or incremental) and
// reports the stream watermark it reaches — the -since for the next
// incremental backup.
func ArchiveWatermark(r io.Reader) (Watermark, error) { return anonymizer.ArchiveWatermark(r) }

// IncrementalBackupDir streams a closed data directory's mutation
// records after since to w as one incremental archive (see
// DurableStore.WriteIncrementalBackup for the hot variant).
func IncrementalBackupDir(w io.Writer, dir string, since Watermark) (int64, *IncrementalStats, error) {
	return anonymizer.IncrementalBackupDir(w, dir, since)
}

// ApplyIncremental extends a closed data directory with an incremental
// archive: every delta record lands through the same journal+apply
// pipeline a replication follower uses.
func ApplyIncremental(r io.Reader, dir string, opts ...DurabilityOption) (*IncrementalStats, error) {
	return anonymizer.ApplyIncremental(r, dir, opts...)
}

// WithReplica opens a durable store as a replication follower: local
// mutations are refused and the TTL sweeper stays off (expire records
// arrive through the leader's stream).
func WithReplica() DurabilityOption { return anonymizer.WithReplica() }

// WithClock substitutes a durable store's wall clock (tests and
// deterministic harnesses).
func WithClock(now func() time.Time) DurabilityOption { return anonymizer.WithClock(now) }

// WithReplicator installs a server's replication follower state: writes
// are refused with a redirect to the leader while the replicator reports
// follower role. Pair with WithStore(follower.Store()).
func WithReplicator(r Replicator) ServerOption { return anonymizer.WithReplicator(r) }

// StartFollower bootstraps (from a hot backup of the leader, when the
// data dir is fresh) and starts a replication follower tailing the
// leader's mutation stream. Plug the result into a server with
// WithStore(f.Store()) and WithReplicator(f).
func StartFollower(cfg FollowerConfig) (*Follower, error) { return repl.Start(cfg) }

// LoadTenants reads a tenants file into a hot-reloadable registry.
// Install it into a server with WithTenants; call Watch to pick up file
// edits, and Close when done. The registry is caller-owned: the server
// never closes it, so one registry can back several servers.
func LoadTenants(path string) (*TenantRegistry, error) { return tenant.Load(path) }

// TenantsFromJSON builds a fixed (non-reloadable) tenant registry from
// raw tenants-file JSON — tests and embedded configurations.
func TenantsFromJSON(raw []byte) (*TenantRegistry, error) { return tenant.FromJSON(raw) }

// WithTenants enables authentication on a server: connections must
// present tenant credentials via Client.Auth before any operation
// beyond ping, and every operation is checked against the tenant's
// capabilities and charged against its rate budget. Without this
// option the server is open, exactly as before.
func WithTenants(reg *TenantRegistry) ServerOption { return anonymizer.WithTenants(reg) }

// DialServer connects to a trusted anonymization server. Options tune
// the client (e.g. WithLeaderRouting to follow write redirects from a
// replication follower to its leader).
func DialServer(addr string, opts ...ClientOption) (*Client, error) {
	return anonymizer.Dial(addr, opts...)
}

// WithLeaderRouting makes a client follower-aware: writes refused by a
// replication follower are transparently retried against the advertised
// leader, while reads keep hitting the dialed address.
func WithLeaderRouting() ClientOption { return anonymizer.WithLeaderRouting() }

// Codec selects a client's wire encoding: CodecAuto (negotiate binary
// framing, fall back to JSON v1), CodecJSON, or CodecBinary (fail
// instead of falling back).
type Codec = anonymizer.Codec

// Wire codec choices for WithCodec.
const (
	CodecAuto   = anonymizer.CodecAuto
	CodecJSON   = anonymizer.CodecJSON
	CodecBinary = anonymizer.CodecBinary
)

// WithCodec selects the wire codec a client speaks (see Codec). The
// default negotiates the binary protocol (v2) and transparently falls
// back to JSON against servers that predate it.
func WithCodec(c Codec) ClientOption { return anonymizer.WithCodec(c) }

// ParseCodec parses a -codec flag value ("auto", "json" or "binary").
func ParseCodec(s string) (Codec, error) { return anonymizer.ParseCodec(s) }

// GeneratePOIs places n POIs uniformly along the network.
func GeneratePOIs(g *Graph, n int, seed []byte) ([]POI, error) {
	return query.GeneratePOIs(g, n, seed)
}

// NewPOIIndex builds a range-query index over POIs.
func NewPOIIndex(g *Graph, pois []POI) *POIIndex { return query.NewIndex(g, pois) }

// RenderASCII draws the network and region layers as an ASCII map.
func RenderASCII(g *Graph, w, h int, layers ...RenderLayer) (string, error) {
	return viz.RenderASCII(g, w, h, layers...)
}

// WriteSVG writes the network and region layers as an SVG document.
func WriteSVG(w io.Writer, g *Graph, width int, layers ...RenderLayer) error {
	return viz.WriteSVG(w, g, width, layers...)
}

// NewTemporalCloak builds a multi-level reversible temporal cloak.
func NewTemporalCloak(levels []TemporalLevel) (*TemporalCloak, error) {
	return temporal.New(levels)
}
