#!/bin/sh
# End-to-end exercise of log-shipping replication and failover, as run in
# CI:
#
#   serve leader (durable) -> loadgen -> serve follower (-replicate-from,
#   bootstraps from a hot backup) -> more load -> the leader's lag gauge
#   for the follower drains to 0 -> wait for catch-up -> snapshot the
#   follower's state via hot backup -> kill the leader -> dump its dir
#   -> promote the follower -> writes succeed on the new leader ->
#   restart the stale leader as a follower -> it MUST be fenced ->
#   byte-identical dumps of the old leader dir and the follower's
#   pre-promotion state.
#
# An incremental-backup leg rides along: full backup early, deltas after
# more load, full+delta must dump identically to the source.
#
# CODEC selects the wire codec the tooling dials with (json or binary,
# default json). Either leg is deliberately a mixed-version pairing —
# the follower's replication link to the leader always runs the OTHER
# codec — pinning that one server serves v1 JSON lines and v2 binary
# frames on the same port at once.
#
# Everything runs under a temp dir and cleans up after itself.
set -eu

CODEC="${CODEC:-json}"
if [ "$CODEC" = binary ]; then REPL_CODEC=json; else REPL_CODEC=binary; fi

PORT="${E2E_PORT:-7310}"
FPORT="${E2E_FOLLOWER_PORT:-7311}"
APORT="${E2E_ADMIN_PORT:-7315}"
ADDR="127.0.0.1:$PORT"
FADDR="127.0.0.1:$FPORT"
ADMIN="127.0.0.1:$APORT"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rc-e2e-repl.XXXXXX")"
LEADER_PID=""
FOLLOWER_PID=""

cleanup() {
    status=$?
    [ -n "$LEADER_PID" ] && kill "$LEADER_PID" 2>/dev/null || true
    [ -n "$FOLLOWER_PID" ] && kill "$FOLLOWER_PID" 2>/dev/null || true
    [ -n "$LEADER_PID" ] && wait "$LEADER_PID" 2>/dev/null || true
    [ -n "$FOLLOWER_PID" ] && wait "$FOLLOWER_PID" 2>/dev/null || true
    if [ "$status" -ne 0 ] && [ -n "${E2E_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$E2E_ARTIFACT_DIR"
        cp "$WORK"/*.log "$WORK"/*.dump "$WORK"/*.txt "$E2E_ARTIFACT_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

await_ready() {
    # The status op doubles as a readiness probe.
    _addr="$1"; _log="$2"
    for _ in $(seq 1 75); do
        if "$WORK/anonymizer" status -addr "$_addr" -codec "$CODEC" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "server at $_addr never became ready"; cat "$_log"; exit 1
}

watermark() {
    "$WORK/anonymizer" status -addr "$1" -codec "$CODEC" | sed -n 's/^watermark: *//p'
}

echo "== build"
go build -o "$WORK/anonymizer" ./cmd/anonymizer

echo "== serve leader (durable store at $WORK/d-leader, admin plane on $ADMIN, tooling codec $CODEC)"
"$WORK/anonymizer" serve -addr "$ADDR" -data-dir "$WORK/d-leader" -ttl 0 \
    -admin-addr "$ADMIN" \
    >"$WORK/leader.log" 2>&1 &
LEADER_PID=$!
await_ready "$ADDR" "$WORK/leader.log"

echo "== loadgen (registrations left live via a long TTL)"
"$WORK/anonymizer" loadgen -addr "$ADDR" -codec "$CODEC" -clients 2 -duration 1s -ttl 24h

echo "== full backup + watermark for the incremental leg"
"$WORK/anonymizer" backup -addr "$ADDR" -codec "$CODEC" -out "$WORK/full.rca" 2>"$WORK/backup.meta"
cat "$WORK/backup.meta"
WM="$(sed -n 's/.*watermark \([0-9,]*\)).*/\1/p' "$WORK/backup.meta")"
[ -n "$WM" ] || { echo "FAIL: no watermark in backup output"; exit 1; }

echo "== serve follower (bootstraps from the leader; replication link on $REPL_CODEC)"
"$WORK/anonymizer" serve -addr "$FADDR" -data-dir "$WORK/d-follower" -ttl 0 \
    -replicate-from "$ADDR" -advertise "$FADDR" -codec "$REPL_CODEC" \
    >"$WORK/follower.log" 2>&1 &
FOLLOWER_PID=$!
await_ready "$FADDR" "$WORK/follower.log"

echo "== more load after the full backup (crosses the delta and the stream)"
"$WORK/anonymizer" loadgen -addr "$ADDR" -codec "$CODEC" -clients 2 -duration 1s -ttl 24h

echo "== lag drains: the leader's gauge for the follower reads 0 within 5s"
# A follower's poll names its durable watermark, which the leader records
# as its ack; 0 means the follower's polls caught up with every write.
drained=""
for _ in $(seq 1 25); do
    if curl -fsS "http://$ADMIN/metrics" |
        grep -qx "anonymizer_repl_follower_behind{follower=\"$FADDR\"} 0"; then
        drained=yes
        break
    fi
    sleep 0.2
done
[ -n "$drained" ] || { echo "FAIL: the leader's lag gauge for $FADDR never reached 0:"; \
    curl -fsS "http://$ADMIN/metrics" | grep anonymizer_repl_follower_behind; exit 1; }

echo "== wait for the follower to catch up"
caught=""
for _ in $(seq 1 100); do
    LWM="$(watermark "$ADDR")"
    FWM="$(watermark "$FADDR")"
    if [ -n "$LWM" ] && [ "$LWM" = "$FWM" ]; then
        caught=yes
        break
    fi
    sleep 0.2
done
[ -n "$caught" ] || { echo "FAIL: follower never caught up (leader $LWM, follower $FWM)"; \
    cat "$WORK/follower.log"; exit 1; }
"$WORK/anonymizer" status -addr "$FADDR" -codec "$CODEC"

echo "== metrics smoke: the leader's admin plane sees the WAL and its follower"
curl -fsS "http://$ADMIN/healthz" >/dev/null || { echo "FAIL: healthz"; exit 1; }
curl -fsS "http://$ADMIN/readyz" >/dev/null || { echo "FAIL: readyz"; exit 1; }
curl -fsS "http://$ADMIN/metrics" >"$WORK/metrics.txt"
grep -v '^#' "$WORK/metrics.txt" | grep -q '^anonymizer_wal_records_total [1-9]' || {
    echo "FAIL: no WAL records in /metrics"; exit 1; }
grep -v '^#' "$WORK/metrics.txt" | grep -q '^anonymizer_wal_fsyncs_total [1-9]' || {
    echo "FAIL: no WAL fsyncs in /metrics"; exit 1; }
grep -v '^#' "$WORK/metrics.txt" | grep -q '^anonymizer_repl_follower_behind' || {
    echo "FAIL: caught-up follower missing from the lag gauge"; exit 1; }

echo "== incremental backup since $WM, applied over the full restore"
"$WORK/anonymizer" backup -addr "$ADDR" -codec "$CODEC" -since "$WM" -out "$WORK/delta.rca"
"$WORK/anonymizer" restore -in "$WORK/full.rca" -data-dir "$WORK/d-incr"
"$WORK/anonymizer" restore -apply -in "$WORK/delta.rca" -data-dir "$WORK/d-incr"

echo "== snapshot the follower's replicated state (hot backup from the follower)"
"$WORK/anonymizer" backup -addr "$FADDR" -codec "$CODEC" -out "$WORK/follower.rca"
"$WORK/anonymizer" restore -in "$WORK/follower.rca" -data-dir "$WORK/d-follower-copy"

echo "== kill the leader"
kill -TERM "$LEADER_PID"
wait "$LEADER_PID" 2>/dev/null || true
LEADER_PID=""

echo "== dump the dead leader's directory"
"$WORK/anonymizer" dump -data-dir "$WORK/d-leader" >"$WORK/leader.dump"
[ -s "$WORK/leader.dump" ] || { echo "FAIL: empty leader dump"; exit 1; }

echo "== promote the follower"
"$WORK/anonymizer" promote -addr "$FADDR" -codec "$CODEC"
"$WORK/anonymizer" status -addr "$FADDR" -codec "$CODEC" | grep -q "role: *leader" || {
    echo "FAIL: follower did not become leader"; exit 1; }

echo "== writes succeed on the new leader"
"$WORK/anonymizer" loadgen -addr "$FADDR" -codec "$CODEC" -clients 1 -duration 1s

echo "== the stale leader must be fenced when it tries to rejoin"
if "$WORK/anonymizer" serve -addr "127.0.0.1:7312" -data-dir "$WORK/d-leader" \
    -replicate-from "$FADDR" >"$WORK/stale.log" 2>&1; then
    echo "FAIL: stale leader rejoined without re-bootstrapping"; exit 1
fi
grep -q "fenced" "$WORK/stale.log" || {
    echo "FAIL: stale leader refused for the wrong reason:"; cat "$WORK/stale.log"; exit 1; }

echo "== byte-identical dumps: leader dir vs replicated state vs full+delta"
"$WORK/anonymizer" dump -data-dir "$WORK/d-follower-copy" >"$WORK/follower.dump"
"$WORK/anonymizer" dump -data-dir "$WORK/d-incr" >"$WORK/incr.dump"
cmp "$WORK/leader.dump" "$WORK/follower.dump" || {
    echo "FAIL: follower state diverged from the leader"; exit 1; }
cmp "$WORK/leader.dump" "$WORK/incr.dump" || {
    echo "FAIL: full+incremental restore diverged from the leader"; exit 1; }

echo "== OK ($CODEC tooling, $REPL_CODEC replication link): $(wc -l <"$WORK/leader.dump") registrations replicated, failover fenced, incremental verified"
