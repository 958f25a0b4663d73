package anonymizer

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
)

// serverMetrics is the server's always-on operational instrumentation:
// per-op latency histograms and the trust-boundary counters. Everything
// is a fixed-shape atomic — no locks, no allocation on the hot path —
// so it stays cheap enough to leave enabled unconditionally; the admin
// HTTP listener renders it in Prometheus text format.
type serverMetrics struct {
	ops   map[Op]*opMetrics
	other *opMetrics // ops not in the table (unknown/bad requests)

	connsOpen    atomic.Int64
	connsTotal   atomic.Int64
	connsBinary  atomic.Int64 // connections upgraded to binary framing (v2)
	bytesIn      atomic.Int64
	bytesOut     atomic.Int64
	respWrites   atomic.Int64 // socket writes by the connection writers
	authFailures atomic.Int64 // rejected auth attempts
	authRejects  atomic.Int64 // unauthenticated/revoked requests bounced
	denied       atomic.Int64 // capability rejections
	throttled    atomic.Int64 // rate-limit rejections

	peelsSealed  atomic.Int64 // reduces that opened sealed levels
	peelsSearch  atomic.Int64 // reduces the engine's search answered
	sealFailures atomic.Int64 // sealed levels that did not open
}

// latencyBuckets are the histogram's upper bounds in seconds (+Inf is
// implicit): 100µs to 10s, roughly ×2.5 apart — wide enough to cover a
// ping and a full-map RPLE cloak in the same histogram.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// opMetrics is one operation's latency histogram and error counter.
type opMetrics struct {
	buckets  [len(latencyBuckets)]atomic.Int64 // non-cumulative; cumulated at render
	count    atomic.Int64
	sumNanos atomic.Int64
	errors   atomic.Int64
}

// observe records one executed request.
func (m *opMetrics) observe(d time.Duration, ok bool) {
	secs := d.Seconds()
	for i, ub := range latencyBuckets {
		if secs <= ub {
			m.buckets[i].Add(1)
			break
		}
	}
	m.count.Add(1)
	m.sumNanos.Add(int64(d))
	if !ok {
		m.errors.Add(1)
	}
}

// trackedOps is the closed op set the metrics table is built over.
var trackedOps = []Op{
	OpPing, OpAuth, OpAnonymize, OpGetRegion, OpSetTrust, OpRequestKeys,
	OpReduce, OpDeregister, OpBackup, OpTouch, OpReplSubscribe,
	OpReplStatus, OpReplPromote,
}

// newServerMetrics builds the fixed-shape metrics table.
func newServerMetrics() *serverMetrics {
	m := &serverMetrics{ops: make(map[Op]*opMetrics, len(trackedOps)), other: &opMetrics{}}
	for _, op := range trackedOps {
		m.ops[op] = &opMetrics{}
	}
	return m
}

// forOp returns the op's histogram (the shared "other" slot for unknown
// ops). The map is never written after construction, so reads are safe
// without a lock.
func (m *serverMetrics) forOp(op Op) *opMetrics {
	if om, ok := m.ops[op]; ok {
		return om
	}
	return m.other
}

// observe times one dispatched request into the op's histogram.
func (m *serverMetrics) observe(op Op, d time.Duration, ok bool) {
	m.forOp(op).observe(d, ok)
}

// countPeel counts one reduce that peeled, by how.
func (m *serverMetrics) countPeel(path peelPath) {
	switch path {
	case peelSealed:
		m.peelsSealed.Add(1)
	case peelSealFailed:
		m.sealFailures.Add(1)
		m.peelsSearch.Add(1)
	case peelSearch:
		m.peelsSearch.Add(1)
	}
}

// writeEngineMetrics renders the cloak engines' own counters
// (cloak.Engine.Stats): what requests cost inside the engine — reversal
// searches and the nodes they expanded, its unit of work — and how levels
// were settled. Work series are summed over the enabled engines; outcome
// series carry the algorithm.
func (s *Server) writeEngineMetrics(w io.Writer) {
	algos := make([]cloak.Algorithm, 0, len(s.engines))
	for a := range s.engines {
		algos = append(algos, a)
	}
	sort.Slice(algos, func(i, j int) bool { return algos[i] < algos[j] })
	stats := make([]cloak.Stats, len(algos))
	var sum cloak.Stats
	for i, a := range algos {
		st := s.engines[a].Stats()
		stats[i] = st
		sum.Searches += st.Searches
		sum.SearchesExhausted += st.SearchesExhausted
		sum.SearchesEmpty += st.SearchesEmpty
		sum.SearchesAmbiguous += st.SearchesAmbiguous
		sum.SearchNodes += st.SearchNodes
		sum.TagPRFs += st.TagPRFs
		sum.SaltRetries += st.SaltRetries
	}
	fmt.Fprintf(w, "# HELP anonymizer_cloak_search_nodes_total Reversal-search nodes expanded by the cloak engines (their unit of work: anonymize verifies every tagless level by walking its known chain backward and exploring what a reader's search would try first, reduce searches every tagless level).\n")
	fmt.Fprintf(w, "# TYPE anonymizer_cloak_search_nodes_total counter\n")
	fmt.Fprintf(w, "anonymizer_cloak_search_nodes_total %d\n", sum.SearchNodes)
	fmt.Fprintf(w, "# HELP anonymizer_cloak_tag_prfs_total Step tags derived by the cloak engines to match published ones (the unit of work of tagged levels: anonymize verifies a tagged level against every member at every step, reduce tries every member at a tagged level's top step and only the heads the backward transition names below it).\n")
	fmt.Fprintf(w, "# TYPE anonymizer_cloak_tag_prfs_total counter\n")
	fmt.Fprintf(w, "anonymizer_cloak_tag_prfs_total %d\n", sum.TagPRFs)
	fmt.Fprintf(w, "# HELP anonymizer_cloak_searches_total Reader searches (reduce) and anonymize-time verifications by outcome (ok = the search found a chain / the verification confirmed the level reverses to itself, ambiguous = a verification found a complete chain the reader would take before the true one, exhausted = the node budget ran out first, none = no hypothesis survived). A verification that is not ok publishes the level with tags.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_cloak_searches_total counter\n")
	fmt.Fprintf(w, "anonymizer_cloak_searches_total{outcome=\"ok\"} %d\n", sum.Searches-sum.SearchesAmbiguous-sum.SearchesExhausted-sum.SearchesEmpty)
	fmt.Fprintf(w, "anonymizer_cloak_searches_total{outcome=\"ambiguous\"} %d\n", sum.SearchesAmbiguous)
	fmt.Fprintf(w, "anonymizer_cloak_searches_total{outcome=\"exhausted\"} %d\n", sum.SearchesExhausted)
	fmt.Fprintf(w, "anonymizer_cloak_searches_total{outcome=\"none\"} %d\n", sum.SearchesEmpty)
	fmt.Fprintf(w, "# HELP anonymizer_cloak_levels_total Privacy levels published by anonymize, by algorithm and whether the level needed disambiguation tags.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_cloak_levels_total counter\n")
	for i, a := range algos {
		fmt.Fprintf(w, "anonymizer_cloak_levels_total{algorithm=%q,mode=\"tagless\"} %d\n", a.String(), stats[i].TaglessLevels)
		fmt.Fprintf(w, "anonymizer_cloak_levels_total{algorithm=%q,mode=\"tagged\"} %d\n", a.String(), stats[i].TaggedLevels)
	}
	fmt.Fprintf(w, "# HELP anonymizer_cloak_salt_retries_total Level attempts rejected and re-expanded under the next salt (stuck expansion or unverifiable reversal).\n")
	fmt.Fprintf(w, "# TYPE anonymizer_cloak_salt_retries_total counter\n")
	fmt.Fprintf(w, "anonymizer_cloak_salt_retries_total %d\n", sum.SaltRetries)
	fmt.Fprintf(w, "# HELP anonymizer_cloak_refused_total Anonymize requests no salt could satisfy, by algorithm.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_cloak_refused_total counter\n")
	for i, a := range algos {
		fmt.Fprintf(w, "anonymizer_cloak_refused_total{algorithm=%q} %d\n", a.String(), stats[i].Refusals)
	}
}

// writeMetrics renders the full Prometheus text exposition: server-wide
// counters, per-op histograms, per-tenant usage, WAL/group-commit stats
// and replication lag. It is the /metrics endpoint's body.
func (s *Server) writeMetrics(w io.Writer) {
	m := s.metrics

	fmt.Fprintf(w, "# HELP anonymizer_connections_open Currently open client connections.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_connections_open gauge\n")
	fmt.Fprintf(w, "anonymizer_connections_open %d\n", m.connsOpen.Load())
	fmt.Fprintf(w, "# HELP anonymizer_connections_total Connections accepted since start.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_connections_total counter\n")
	fmt.Fprintf(w, "anonymizer_connections_total %d\n", m.connsTotal.Load())
	// Per-codec split: every connection starts JSON; the binary counter
	// advances on upgrade, so json = total - binary (computed at render,
	// which can lag an in-flight upgrade by one scrape).
	binaryConns := m.connsBinary.Load()
	fmt.Fprintf(w, "# HELP anonymizer_connections_codec_total Connections by negotiated wire codec.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_connections_codec_total counter\n")
	fmt.Fprintf(w, "anonymizer_connections_codec_total{codec=\"json\"} %d\n", m.connsTotal.Load()-binaryConns)
	fmt.Fprintf(w, "anonymizer_connections_codec_total{codec=\"binary\"} %d\n", binaryConns)
	fmt.Fprintf(w, "# HELP anonymizer_request_bytes_total Request bytes read off the wire.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_request_bytes_total counter\n")
	fmt.Fprintf(w, "anonymizer_request_bytes_total %d\n", m.bytesIn.Load())
	fmt.Fprintf(w, "# HELP anonymizer_response_bytes_total Response bytes written to the wire.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_response_bytes_total counter\n")
	fmt.Fprintf(w, "anonymizer_response_bytes_total %d\n", m.bytesOut.Load())
	fmt.Fprintf(w, "# HELP anonymizer_response_writes_total Socket writes carrying responses; a write carries every response ready when it is issued.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_response_writes_total counter\n")
	fmt.Fprintf(w, "anonymizer_response_writes_total %d\n", m.respWrites.Load())
	fmt.Fprintf(w, "# HELP anonymizer_registrations Live registrations in the store.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_registrations gauge\n")
	fmt.Fprintf(w, "anonymizer_registrations %d\n", s.store.Len())

	fmt.Fprintf(w, "# HELP anonymizer_auth_failures_total Rejected auth attempts.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_auth_failures_total counter\n")
	fmt.Fprintf(w, "anonymizer_auth_failures_total %d\n", m.authFailures.Load())
	fmt.Fprintf(w, "# HELP anonymizer_unauthenticated_rejects_total Requests bounced for missing or revoked credentials.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_unauthenticated_rejects_total counter\n")
	fmt.Fprintf(w, "anonymizer_unauthenticated_rejects_total %d\n", m.authRejects.Load())
	fmt.Fprintf(w, "# HELP anonymizer_denied_total Capability rejections.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_denied_total counter\n")
	fmt.Fprintf(w, "anonymizer_denied_total %d\n", m.denied.Load())
	fmt.Fprintf(w, "# HELP anonymizer_throttled_total Rate-limit rejections.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_throttled_total counter\n")
	fmt.Fprintf(w, "anonymizer_throttled_total %d\n", m.throttled.Load())

	// Per-op latency histograms.
	fmt.Fprintf(w, "# HELP anonymizer_op_duration_seconds Request latency by operation.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_op_duration_seconds histogram\n")
	for _, op := range trackedOps {
		writeOpHistogram(w, string(op), m.ops[op])
	}
	writeOpHistogram(w, "other", m.other)
	fmt.Fprintf(w, "# HELP anonymizer_op_errors_total Requests answered ok=false, by operation.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_op_errors_total counter\n")
	for _, op := range trackedOps {
		fmt.Fprintf(w, "anonymizer_op_errors_total{op=%q} %d\n", op, m.ops[op].errors.Load())
	}
	fmt.Fprintf(w, "anonymizer_op_errors_total{op=\"other\"} %d\n", m.other.errors.Load())

	// Per-tenant usage.
	if reg := s.cfg.tenants; reg != nil {
		fmt.Fprintf(w, "# HELP anonymizer_tenant_ops_total Executed operations by tenant.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_tenant_ops_total counter\n")
		usage := reg.UsageSnapshot()
		for _, u := range usage {
			fmt.Fprintf(w, "anonymizer_tenant_ops_total{tenant=%q} %d\n", u.Name, u.Ops)
		}
		fmt.Fprintf(w, "# HELP anonymizer_tenant_bytes_total Request bytes by tenant.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_tenant_bytes_total counter\n")
		for _, u := range usage {
			fmt.Fprintf(w, "anonymizer_tenant_bytes_total{tenant=%q} %d\n", u.Name, u.Bytes)
		}
		fmt.Fprintf(w, "# HELP anonymizer_tenant_rejected_total Rejections by tenant and reason.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_tenant_rejected_total counter\n")
		for _, u := range usage {
			fmt.Fprintf(w, "anonymizer_tenant_rejected_total{tenant=%q,reason=\"denied\"} %d\n", u.Name, u.Denied)
			fmt.Fprintf(w, "anonymizer_tenant_rejected_total{tenant=%q,reason=\"throttled\"} %d\n", u.Name, u.Throttled)
		}
	}

	s.writeEngineMetrics(w)
	fmt.Fprintf(w, "# HELP anonymizer_reduce_peels_total Reduces that peeled levels, by how: sealed = opened the levels sealed at register (no search), search = the engine's reversal search (registrations without sealed levels, or whose sealed levels did not open).\n")
	fmt.Fprintf(w, "# TYPE anonymizer_reduce_peels_total counter\n")
	fmt.Fprintf(w, "anonymizer_reduce_peels_total{path=\"sealed\"} %d\n", m.peelsSealed.Load())
	fmt.Fprintf(w, "anonymizer_reduce_peels_total{path=\"search\"} %d\n", m.peelsSearch.Load())
	fmt.Fprintf(w, "# HELP anonymizer_reduce_seal_failures_total Reduces of sealed registrations whose sealed levels did not open or did not fit the region; each was answered by search.\n")
	fmt.Fprintf(w, "# TYPE anonymizer_reduce_seal_failures_total counter\n")
	fmt.Fprintf(w, "anonymizer_reduce_seal_failures_total %d\n", m.sealFailures.Load())

	// Read-path cache (WithReduceCacheBytes). Absent when disabled.
	if c := s.cache; c != nil {
		cs := c.Stats()
		fmt.Fprintf(w, "# HELP anonymizer_reduce_cache_hits_total Reduce-cache hits by tier (region = memoized reductions, keys = derived key sets).\n")
		fmt.Fprintf(w, "# TYPE anonymizer_reduce_cache_hits_total counter\n")
		fmt.Fprintf(w, "anonymizer_reduce_cache_hits_total{tier=\"region\"} %d\n", cs.RegionHits)
		fmt.Fprintf(w, "anonymizer_reduce_cache_hits_total{tier=\"keys\"} %d\n", cs.KeyHits)
		fmt.Fprintf(w, "# HELP anonymizer_reduce_cache_misses_total Reduce-cache misses by tier.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_reduce_cache_misses_total counter\n")
		fmt.Fprintf(w, "anonymizer_reduce_cache_misses_total{tier=\"region\"} %d\n", cs.RegionMisses)
		fmt.Fprintf(w, "anonymizer_reduce_cache_misses_total{tier=\"keys\"} %d\n", cs.KeyMisses)
		fmt.Fprintf(w, "# HELP anonymizer_reduce_cache_evictions_total Entries evicted to stay inside the byte budget.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_reduce_cache_evictions_total counter\n")
		fmt.Fprintf(w, "anonymizer_reduce_cache_evictions_total %d\n", cs.Evictions)
		fmt.Fprintf(w, "# HELP anonymizer_reduce_cache_singleflight_waits_total Requests that piggybacked on another caller's in-flight peel.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_reduce_cache_singleflight_waits_total counter\n")
		fmt.Fprintf(w, "anonymizer_reduce_cache_singleflight_waits_total %d\n", cs.SingleflightWaits)
		fmt.Fprintf(w, "# HELP anonymizer_reduce_cache_bytes Current cached cost in bytes.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_reduce_cache_bytes gauge\n")
		fmt.Fprintf(w, "anonymizer_reduce_cache_bytes %d\n", cs.Bytes)
		fmt.Fprintf(w, "# HELP anonymizer_reduce_cache_entries Current cached entries across both tiers.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_reduce_cache_entries gauge\n")
		fmt.Fprintf(w, "anonymizer_reduce_cache_entries %d\n", cs.Entries)
	}

	// Registrations by master-key epoch (epoch 0 = stored keys), so an
	// operator can watch a rotation drain the old epoch.
	byEpoch := map[uint32]int{}
	s.store.Range(func(_ string, reg *Registration) bool {
		byEpoch[reg.KeyEpoch()]++
		return true
	})
	if len(byEpoch) > 0 {
		epochs := make([]uint32, 0, len(byEpoch))
		for e := range byEpoch {
			epochs = append(epochs, e)
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
		fmt.Fprintf(w, "# HELP anonymizer_registrations_by_key_epoch Live registrations by master-key epoch (0 = stored keys).\n")
		fmt.Fprintf(w, "# TYPE anonymizer_registrations_by_key_epoch gauge\n")
		for _, e := range epochs {
			fmt.Fprintf(w, "anonymizer_registrations_by_key_epoch{epoch=\"%d\"} %d\n", e, byEpoch[e])
		}
	}

	// Journal internals: WAL fsyncs, group commit, snapshots, stream
	// position. Absent when the store has no journal.
	if ds := s.store; ds.log != nil {
		ws := ds.WALStats()
		fmt.Fprintf(w, "# HELP anonymizer_wal_records_total Mutation records journaled.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_records_total counter\n")
		fmt.Fprintf(w, "anonymizer_wal_records_total %d\n", ws.Records)
		fmt.Fprintf(w, "# HELP anonymizer_wal_fsyncs_total WAL fsync calls (all policies).\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_fsyncs_total counter\n")
		fmt.Fprintf(w, "anonymizer_wal_fsyncs_total %d\n", ws.Fsyncs)
		fmt.Fprintf(w, "# HELP anonymizer_wal_group_commit_rounds_total Group-commit leader fsync rounds.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_group_commit_rounds_total counter\n")
		fmt.Fprintf(w, "anonymizer_wal_group_commit_rounds_total %d\n", ws.GroupCommitRounds)
		fmt.Fprintf(w, "# HELP anonymizer_wal_group_commit_waits_total Mutations that waited on a group commit.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_group_commit_waits_total counter\n")
		fmt.Fprintf(w, "anonymizer_wal_group_commit_waits_total %d\n", ws.GroupCommitWaits)
		fmt.Fprintf(w, "# HELP anonymizer_wal_group_commit_last_cohort Mutations released by the most recent group-commit round.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_group_commit_last_cohort gauge\n")
		fmt.Fprintf(w, "anonymizer_wal_group_commit_last_cohort %d\n", ws.GroupCommitLastCohort)
		fmt.Fprintf(w, "# HELP anonymizer_wal_log_bytes Unified-log on-disk footprint (reclaimed segments excluded).\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_log_bytes gauge\n")
		fmt.Fprintf(w, "anonymizer_wal_log_bytes %d\n", ws.LogBytes)
		fmt.Fprintf(w, "# HELP anonymizer_wal_log_segments Unified-log segment files on disk.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_log_segments gauge\n")
		fmt.Fprintf(w, "anonymizer_wal_log_segments %d\n", ws.LogSegments)
		fmt.Fprintf(w, "# HELP anonymizer_wal_fsync_duration_seconds WAL fsync latency (all policies).\n")
		fmt.Fprintf(w, "# TYPE anonymizer_wal_fsync_duration_seconds histogram\n")
		writeFsyncHistogram(w, &ds.log.hist)
		fmt.Fprintf(w, "# HELP anonymizer_snapshots_total Shard WAL compactions performed.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_snapshots_total counter\n")
		fmt.Fprintf(w, "anonymizer_snapshots_total %d\n", ds.Snapshots())
		fmt.Fprintf(w, "# HELP anonymizer_stream_watermark_sum The store's stream position: the last log sequence number (LSN).\n")
		fmt.Fprintf(w, "# TYPE anonymizer_stream_watermark_sum gauge\n")
		fmt.Fprintf(w, "anonymizer_stream_watermark_sum %d\n", ds.Watermark())
		if epoch, known := ds.Epoch(); known {
			fmt.Fprintf(w, "# HELP anonymizer_repl_epoch The node's replication epoch.\n")
			fmt.Fprintf(w, "# TYPE anonymizer_repl_epoch gauge\n")
			fmt.Fprintf(w, "anonymizer_repl_epoch %d\n", epoch)
		}
	}

	// Replication lag: follower-side backlog, or the leader's view of
	// each subscribed follower.
	if s.cfg.repl != nil && !s.cfg.repl.IsLeader() {
		lag, last := s.cfg.repl.Lag()
		fmt.Fprintf(w, "# HELP anonymizer_repl_lag_frames Stream records this follower is behind the leader.\n")
		fmt.Fprintf(w, "# TYPE anonymizer_repl_lag_frames gauge\n")
		fmt.Fprintf(w, "anonymizer_repl_lag_frames %d\n", lag)
		if !last.IsZero() {
			fmt.Fprintf(w, "# HELP anonymizer_repl_last_apply_timestamp_seconds Unix time of the follower's last applied record.\n")
			fmt.Fprintf(w, "# TYPE anonymizer_repl_last_apply_timestamp_seconds gauge\n")
			fmt.Fprintf(w, "anonymizer_repl_last_apply_timestamp_seconds %d\n", last.Unix())
		}
	}
	if s.isLeader() {
		followers := s.replFollowers.snapshot(s.store.Watermark())
		if len(followers) > 0 {
			fmt.Fprintf(w, "# HELP anonymizer_repl_follower_behind Stream records each subscribed follower trails by.\n")
			fmt.Fprintf(w, "# TYPE anonymizer_repl_follower_behind gauge\n")
			for _, f := range followers {
				fmt.Fprintf(w, "anonymizer_repl_follower_behind{follower=%q} %d\n", f.Addr, f.Behind)
			}
		}
	}
}

// writeOpHistogram renders one op's histogram in Prometheus text format
// (cumulative le buckets, _sum in seconds, _count).
func writeOpHistogram(w io.Writer, op string, m *opMetrics) {
	count := m.count.Load()
	if count == 0 {
		return // keep the exposition small: untouched ops emit nothing
	}
	var cum int64
	for i, ub := range latencyBuckets {
		cum += m.buckets[i].Load()
		fmt.Fprintf(w, "anonymizer_op_duration_seconds_bucket{op=%q,le=%q} %d\n",
			op, formatBound(ub), cum)
	}
	fmt.Fprintf(w, "anonymizer_op_duration_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", op, count)
	fmt.Fprintf(w, "anonymizer_op_duration_seconds_sum{op=%q} %g\n",
		op, float64(m.sumNanos.Load())/float64(time.Second))
	fmt.Fprintf(w, "anonymizer_op_duration_seconds_count{op=%q} %d\n", op, count)
}

// writeFsyncHistogram renders the WAL fsync-latency histogram. Unlike
// the per-op histograms it is emitted even when empty: an fsync=interval
// store can legitimately go scrapes without a sync, and alert rules need
// the series to exist before the first one.
func writeFsyncHistogram(w io.Writer, h *fsyncHist) {
	var cum int64
	for i, ub := range latencyBuckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "anonymizer_wal_fsync_duration_seconds_bucket{le=%q} %d\n",
			formatBound(ub), cum)
	}
	count := h.count.Load()
	fmt.Fprintf(w, "anonymizer_wal_fsync_duration_seconds_bucket{le=\"+Inf\"} %d\n", count)
	fmt.Fprintf(w, "anonymizer_wal_fsync_duration_seconds_sum %g\n",
		float64(h.sumNanos.Load())/float64(time.Second))
	fmt.Fprintf(w, "anonymizer_wal_fsync_duration_seconds_count %d\n", count)
}

// formatBound renders a bucket bound the way Prometheus clients do
// (shortest decimal form).
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
