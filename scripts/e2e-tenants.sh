#!/bin/sh
# End-to-end exercise of the multi-tenant plane, as run in CI:
#
#   serve (durable, -tenants, -admin-addr) -> unauthenticated operator
#   ops bounce -> bad token bounces -> full-access tenant runs clean ->
#   capability-capped tenant sees every write denied -> rate-limited
#   tenant gets throttled -> a zipfian repeated-reduce leg exercises
#   the read-path cache, and every peel opens the levels anonymize
#   sealed -> operator tenant takes a hot backup -> the
#   tenants file is edited live and the revoked tenant loses access
#   within the reload interval -> /metrics, /healthz and /readyz agree
#   with everything the scenario did.
#
# CODEC selects the wire codec every tool dials with (json or binary,
# default json): the binary leg proves the whole trust boundary — auth
# gate, capability denials, throttling, live revocation — behaves
# identically over v2 frames, and the per-codec connection counter on
# /metrics confirms the upgrade actually happened.
#
# Three tenants drive the scenario:
#
#   alpha  every capability, no rate limit  (the in-house service)
#   beta   reduce only, floor 2             (a partner who may coarsen)
#   gamma  anonymize, rate 2/s burst 3      (a free-tier client)
#
# Everything runs under a temp dir and cleans up after itself; on
# failure, logs and the metrics scrape are copied to E2E_ARTIFACT_DIR
# when set (CI uploads them).
set -eu

CODEC="${CODEC:-json}"

PORT="${E2E_PORT:-7320}"
APORT="${E2E_ADMIN_PORT:-7321}"
ADDR="127.0.0.1:$PORT"
ADMIN="127.0.0.1:$APORT"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rc-e2e-tenants.XXXXXX")"
SERVER_PID=""

cleanup() {
    status=$?
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
    if [ "$status" -ne 0 ] && [ -n "${E2E_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$E2E_ARTIFACT_DIR"
        cp "$WORK"/*.log "$WORK"/*.txt "$WORK"/*.json "$E2E_ARTIFACT_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/anonymizer" ./cmd/anonymizer

echo "== write the tenants file"
cat >"$WORK/tenants.json" <<'EOF'
{
  "tenants": [
    {"name": "alpha", "token": "alpha-secret",
     "capabilities": ["anonymize", "reduce", "deregister", "operator"]},
    {"name": "beta", "token": "beta-secret",
     "capabilities": ["reduce"], "reduce_floor": 2},
    {"name": "gamma", "token": "gamma-secret",
     "capabilities": ["anonymize"], "rate": 2, "burst": 3}
  ]
}
EOF

echo "== serve (durable store, tenants enforced, admin plane on $ADMIN)"
"$WORK/anonymizer" serve -addr "$ADDR" -data-dir "$WORK/d" -ttl 0 \
    -tenants "$WORK/tenants.json" -tenants-reload 200ms \
    -admin-addr "$ADMIN" -reduce-cache-bytes 8388608 \
    >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

# The wire status op needs credentials on this server, so readiness
# comes from the admin plane instead — which probes it for free.
ready=""
for _ in $(seq 1 75); do
    if curl -fsS "http://$ADMIN/healthz" >/dev/null 2>&1; then
        ready=yes
        break
    fi
    sleep 0.2
done
[ -n "$ready" ] || { echo "FAIL: admin plane never became ready"; cat "$WORK/server.log"; exit 1; }

echo "== unauthenticated operator ops must bounce"
if "$WORK/anonymizer" status -addr "$ADDR" -codec "$CODEC" >"$WORK/unauth.txt" 2>&1; then
    echo "FAIL: unauthenticated status succeeded"; exit 1
fi
grep -q "authentication required" "$WORK/unauth.txt" || {
    echo "FAIL: unauthenticated status refused for the wrong reason:"; cat "$WORK/unauth.txt"; exit 1; }
if "$WORK/anonymizer" backup -addr "$ADDR" -codec "$CODEC" -out "$WORK/never.rca" >>"$WORK/unauth.txt" 2>&1; then
    echo "FAIL: unauthenticated backup succeeded"; exit 1
fi

echo "== a bad token must bounce before any load is offered"
if "$WORK/anonymizer" loadgen -addr "$ADDR" -codec "$CODEC" -tenant alpha -token wrong \
    -clients 1 -duration 1s >"$WORK/badtoken.txt" 2>&1; then
    echo "FAIL: loadgen ran with a bad token"; exit 1
fi
grep -q "authentication failed" "$WORK/badtoken.txt" || {
    echo "FAIL: bad token refused for the wrong reason:"; cat "$WORK/badtoken.txt"; exit 1; }

echo "== alpha (full access) runs clean"
"$WORK/anonymizer" loadgen -addr "$ADDR" -codec "$CODEC" -tenant alpha -token alpha-secret \
    -clients 2 -duration 1s -ttl 24h | tee "$WORK/alpha.txt"
grep -q "rejected: denied=0 throttled=0" "$WORK/alpha.txt" || {
    echo "FAIL: the unrestricted tenant was rejected"; exit 1; }

echo "== beta (reduce-only) has every write denied, connection stays up"
"$WORK/anonymizer" loadgen -addr "$ADDR" -codec "$CODEC" -tenant beta -token beta-secret \
    -clients 2 -duration 1s -ttl 24h | tee "$WORK/beta.txt"
grep -q "rejected: denied=[1-9]" "$WORK/beta.txt" || {
    echo "FAIL: the capped tenant was not denied"; exit 1; }
grep -q "throttled=0" "$WORK/beta.txt" || {
    echo "FAIL: the capped tenant was throttled, not denied"; exit 1; }

echo "== gamma (rate 2/s, burst 3) is throttled, not denied"
"$WORK/anonymizer" loadgen -addr "$ADDR" -codec "$CODEC" -tenant gamma -token gamma-secret \
    -clients 2 -duration 1s -ttl 24h | tee "$WORK/gamma.txt"
grep -q "throttled=[1-9]" "$WORK/gamma.txt" || {
    echo "FAIL: the rate-limited tenant was not throttled"; exit 1; }
grep -q "denied=0" "$WORK/gamma.txt" || {
    echo "FAIL: the rate-limited tenant was denied, not throttled"; exit 1; }

echo "== alpha hammers repeated reduces: the read-path cache must serve hits"
"$WORK/anonymizer" loadgen -addr "$ADDR" -codec "$CODEC" -tenant alpha -token alpha-secret \
    -clients 2 -duration 1s -regions 24 -reduce-frac 0.9 -skew 1.5 | tee "$WORK/reduce.txt"
grep -q "reduces: total=[1-9]" "$WORK/reduce.txt" || {
    echo "FAIL: the reduce leg issued no reduces"; exit 1; }
# Every region here was cloaked by this server's anonymize, which seals
# each level's additions: every peel opened them, and none searched.
curl -fsS "http://$ADMIN/metrics" >"$WORK/reduce-metrics.txt"
peels() {
    grep -F "anonymizer_reduce_peels_total{path=\"$1\"}" "$WORK/reduce-metrics.txt" | awk '{print $NF}'
}
sealed_peels="$(peels sealed)"
search_peels="$(peels search)"
[ "${sealed_peels:-0}" -gt 0 ] && [ "$search_peels" = 0 ] || {
    echo "FAIL: reduce peels sealed=${sealed_peels:-missing} search=${search_peels:-missing}, want sealed > 0 and search 0"
    exit 1
}
echo "reduce peels: sealed=$sealed_peels search=$search_peels"

echo "== the operator tenant takes a hot backup"
"$WORK/anonymizer" backup -addr "$ADDR" -codec "$CODEC" -tenant alpha -token alpha-secret \
    -out "$WORK/hot.rca"
[ -s "$WORK/hot.rca" ] || { echo "FAIL: empty backup archive"; exit 1; }
"$WORK/anonymizer" status -addr "$ADDR" -codec "$CODEC" -tenant alpha -token alpha-secret

echo "== revoke beta live: the edit must take effect within the reload interval"
cat >"$WORK/tenants.json" <<'EOF'
{
  "tenants": [
    {"name": "alpha", "token": "alpha-secret",
     "capabilities": ["anonymize", "reduce", "deregister", "operator"]},
    {"name": "gamma", "token": "gamma-secret",
     "capabilities": ["anonymize"], "rate": 2, "burst": 3}
  ]
}
EOF
# Before the reload lands, beta's status probe fails with "permission
# denied" (valid credentials, no operator capability); once the revoked
# table is live it fails with "authentication failed" instead.
revoked=""
for _ in $(seq 1 50); do
    "$WORK/anonymizer" status -addr "$ADDR" -codec "$CODEC" -tenant beta -token beta-secret \
        >"$WORK/revoked.txt" 2>&1 || true
    if grep -q "authentication failed" "$WORK/revoked.txt"; then
        revoked=yes
        break
    fi
    sleep 0.2
done
[ -n "$revoked" ] || {
    echo "FAIL: revoked tenant still authenticates after reload:"; cat "$WORK/revoked.txt"; exit 1; }
# Survivors are unaffected by the reload.
"$WORK/anonymizer" status -addr "$ADDR" -codec "$CODEC" -tenant alpha -token alpha-secret >/dev/null

echo "== scrape the admin plane"
curl -fsS "http://$ADMIN/healthz" | grep -q "ok" || { echo "FAIL: healthz"; exit 1; }
curl -fsS "http://$ADMIN/readyz" >/dev/null || { echo "FAIL: readyz"; exit 1; }
curl -fsS "http://$ADMIN/metrics" >"$WORK/metrics.txt"

# require_pos NEEDLE: the first series line containing NEEDLE must carry
# a positive value.
require_pos() {
    v="$(grep -F "$1" "$WORK/metrics.txt" | grep -v '^#' | head -1 | awk '{print $NF}')"
    case "$v" in
        ''|0|*[!0-9]*) echo "FAIL: metric $1 not positive (got '${v:-missing}')"
                       exit 1 ;;
    esac
}
require_pos 'anonymizer_connections_total'
require_pos 'anonymizer_auth_failures_total'
require_pos 'anonymizer_unauthenticated_rejects_total'
require_pos 'anonymizer_tenant_ops_total{tenant="alpha"}'
require_pos 'anonymizer_tenant_rejected_total{tenant="beta",reason="denied"}'
require_pos 'anonymizer_tenant_rejected_total{tenant="gamma",reason="throttled"}'
require_pos 'anonymizer_denied_total'
require_pos 'anonymizer_throttled_total'
require_pos 'anonymizer_wal_records_total'
require_pos 'anonymizer_wal_fsyncs_total'
require_pos 'anonymizer_op_duration_seconds_count{op="anonymize"}'
require_pos 'anonymizer_op_errors_total{op="backup"}'
# The repeated-reduce leg must have been served from the cache, not
# recomputed per request.
require_pos 'anonymizer_reduce_cache_hits_total{tier="region"}'
# The engine's own counters must agree with the op counters: every
# anonymize this scenario sent carried loadgen's default one-level
# profile, so the levels the cloak engines published (summed over
# algorithm and tag mode) are exactly the anonymizes answered ok.
metric() {
    grep -F "$1" "$WORK/metrics.txt" | grep -v '^#' | awk '{s += $NF} END {print s + 0}'
}
levels="$(metric 'anonymizer_cloak_levels_total{')"
anonymized=$(( $(metric 'anonymizer_op_duration_seconds_count{op="anonymize"}') \
    - $(metric 'anonymizer_op_errors_total{op="anonymize"}') ))
[ "$levels" -gt 0 ] && [ "$levels" -eq "$anonymized" ] || {
    echo "FAIL: engines published $levels levels, but $anonymized one-level anonymizes succeeded"
    exit 1
}
require_pos 'anonymizer_cloak_search_nodes_total'
if [ "$CODEC" = binary ]; then
    # The binary leg must actually have upgraded its connections.
    require_pos 'anonymizer_connections_codec_total{codec="binary"}'
fi

echo "== OK ($CODEC codec): auth gated, capabilities enforced, quotas shed load, revocation is live, metrics agree"
