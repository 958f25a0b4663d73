#!/bin/sh
# End-to-end exercise of the data-dir lifecycle toolkit, as run in CI:
#
#   serve (durable) -> loadgen -> HOT backup over the wire -> stop server
#   -> restore into a fresh dir -> dump both
#   -> dumps byte-identical (same regions, same reductions at every
#      level, same trust tables, same expiries), every registration
#      sealed and every sealed level opening to the search's answer;
#   then the checked-in fixture archives (all cut at 4 stripes, restored
#   re-striped to 16) against their golden dumps, the refusal of
#   retired-layout and other-stripe-count directories, and the
#   derived-keys round trip.
#
# Everything runs under a temp dir and cleans up after itself.
set -eu

PORT="${E2E_PORT:-7296}"
ADDR="127.0.0.1:$PORT"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rc-e2e.XXXXXX")"
SERVE_PID=""

cleanup() {
    status=$?
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    if [ "$status" -ne 0 ] && [ -n "${E2E_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$E2E_ARTIFACT_DIR"
        cp "$WORK"/*.log "$WORK"/*.dump "$E2E_ARTIFACT_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/anonymizer" ./cmd/anonymizer

echo "== serve (durable store at $WORK/d1)"
"$WORK/anonymizer" serve -addr "$ADDR" -data-dir "$WORK/d1" -ttl 0 \
    >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# Wait for the listener (the backup op doubles as a readiness probe).
ready=""
for _ in $(seq 1 50); do
    if "$WORK/anonymizer" backup -addr "$ADDR" -out /dev/null 2>/dev/null; then
        ready=yes
        break
    fi
    sleep 0.2
done
[ -n "$ready" ] || { echo "server never became ready"; cat "$WORK/serve.log"; exit 1; }

echo "== loadgen (registrations left live via a long TTL)"
"$WORK/anonymizer" loadgen -addr "$ADDR" -clients 2 -duration 1s -ttl 24h

echo "== hot backup over the wire"
"$WORK/anonymizer" backup -addr "$ADDR" -out "$WORK/backup.rca"

echo "== stop server"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "== restore into a fresh dir"
"$WORK/anonymizer" restore -in "$WORK/backup.rca" -data-dir "$WORK/d2"
grep -q '"version":4' "$WORK/d2/META.json" || { echo "FAIL: restore did not stage a version-4 directory"; exit 1; }
ls "$WORK/d2"/shard-*.wal >/dev/null 2>&1 && { echo "FAIL: restore staged per-shard WAL files"; exit 1; }

echo "== a truncated archive must restore nothing"
head -c 1000 "$WORK/backup.rca" >"$WORK/torn.rca"
if "$WORK/anonymizer" restore -in "$WORK/torn.rca" -data-dir "$WORK/d-torn" 2>/dev/null; then
    echo "FAIL: truncated archive restored"; exit 1
fi
if [ -e "$WORK/d-torn" ]; then
    echo "FAIL: truncated restore created a data dir"; exit 1
fi

echo "== dump both directories and compare"
"$WORK/anonymizer" dump -data-dir "$WORK/d1" >"$WORK/d1.dump"
"$WORK/anonymizer" dump -data-dir "$WORK/d2" >"$WORK/d2.dump"
[ -s "$WORK/d1.dump" ] || { echo "FAIL: empty dump — loadgen left no state"; exit 1; }
cmp "$WORK/d1.dump" "$WORK/d2.dump" || { echo "FAIL: restore diverged from source"; exit 1; }
# The server sealed every level it cloaked, and dump opened each one and
# matched it against the search: the sealed levels survived the restore.
grep -vq '"sealed":true' "$WORK/d1.dump" && { echo "FAIL: a served registration carries no sealed levels"; exit 1; }

echo "== OK: $(wc -l <"$WORK/d1.dump") registrations identical across serve/restore"

# Fixture leg: the checked-in archives, cut at 4 stripes by binaries that
# could set the stripe count (the v1 and v3 ones from retired layouts),
# must restore re-striped to 16 and dump to their goldens, reduction
# digests included — today's reader on yesterday's bytes.
echo "== fixtures: 4-stripe version-1, version-3 and version-4 archives against their golden dumps"
TESTDATA=internal/anonymizer/testdata
for v in v1 v3 v4; do
    "$WORK/anonymizer" restore -in "$TESTDATA/${v}store.rca" -data-dir "$WORK/${v}r"
    grep -q '"shards":16' "$WORK/${v}r/META.json" || { echo "FAIL: restored $v archive is not a 16-stripe directory"; exit 1; }
    "$WORK/anonymizer" dump -data-dir "$WORK/${v}r" >"$WORK/${v}r.dump"
    cmp "$TESTDATA/${v}store.dump" "$WORK/${v}r.dump" || { echo "FAIL: restored $v archive diverged from golden"; exit 1; }
done
[ "$(ls "$WORK/v4r"/shard-*.snap | wc -l)" -eq 16 ] || { echo "FAIL: restored v4 archive does not hold 16 snapshots"; exit 1; }

# Refusal leg: a directory in any other layout version, or in today's
# layout at another stripe count, is refused, by name, with nothing in it
# touched — a synthesized version-1 one, the checked-in version-3
# directory and a synthesized 4-stripe version-4 one.
echo "== refusal: version-1, version-3 and 4-stripe directories are refused untouched"
mkdir "$WORK/v1dir" && printf '{"version":1,"shards":4}\n' >"$WORK/v1dir/META.json"
cp -r "$TESTDATA/v3store" "$WORK/v3dir"
chmod -R u+w "$WORK/v3dir"
mkdir "$WORK/s4dir" && printf '{"version":4,"shards":4}\n' >"$WORK/s4dir/META.json"
for case in "v1dir:layout version.*version 1" "v3dir:layout version.*version 3" "s4dir:has 4 stripes.*restore"; do
    old="$WORK/${case%%:*}"
    want="${case#*:}"
    cp -r "$old" "$old.orig"
    for cmd in "dump -data-dir $old" "backup -data-dir $old -out $old.rca" \
        "restore -apply -in $WORK/backup.rca -data-dir $old" "serve -addr $ADDR -data-dir $old"; do
        # shellcheck disable=SC2086
        if "$WORK/anonymizer" $cmd >/dev/null 2>"$WORK/refusal.log"; then echo "FAIL: '$cmd' accepted $old"; exit 1; fi
        grep -q "$want" "$WORK/refusal.log" || { echo "FAIL: '$cmd' refusal does not match '$want'"; cat "$WORK/refusal.log"; exit 1; }
        diff -r "$old.orig" "$old" || { echo "FAIL: '$cmd' changed the refused directory"; exit 1; }
    done
done

echo "== OK: fixtures match their goldens; other layouts and stripe counts are refused untouched"

# Derived-keys leg: a server handed a master key file must journal key
# references instead of key material, and backup/restore/dump must all
# work with (and only with) the keyring at hand.
echo "== derived keys: serve with a master key file"
cat >"$WORK/master-keys.json" <<'EOF'
{"active": 1, "epochs": {"1": "6d61737465722d7365637265742d652d316d61737465722d7365637265742d652d31"}}
EOF
"$WORK/anonymizer" serve -addr "$ADDR" -data-dir "$WORK/dk" -ttl 0 \
    -master-key-file "$WORK/master-keys.json" >"$WORK/serve-dk.log" 2>&1 &
SERVE_PID=$!
ready=""
for _ in $(seq 1 50); do
    if "$WORK/anonymizer" backup -addr "$ADDR" -out /dev/null 2>/dev/null; then
        ready=yes
        break
    fi
    sleep 0.2
done
[ -n "$ready" ] || { echo "derived-keys server never became ready"; cat "$WORK/serve-dk.log"; exit 1; }
"$WORK/anonymizer" loadgen -addr "$ADDR" -clients 2 -duration 1s -ttl 24h
"$WORK/anonymizer" backup -addr "$ADDR" -out "$WORK/dk.rca"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
grep -q '"keys"' "$WORK/dk"/wal-*.seg && { echo "FAIL: derived-keys store journaled key material"; exit 1; }
"$WORK/anonymizer" restore -in "$WORK/dk.rca" -data-dir "$WORK/dkr" -master-key-file "$WORK/master-keys.json"
"$WORK/anonymizer" dump -data-dir "$WORK/dk" -master-key-file "$WORK/master-keys.json" >"$WORK/dk.dump"
"$WORK/anonymizer" dump -data-dir "$WORK/dkr" -master-key-file "$WORK/master-keys.json" >"$WORK/dkr.dump"
[ -s "$WORK/dk.dump" ] || { echo "FAIL: empty derived-keys dump"; exit 1; }
cmp "$WORK/dk.dump" "$WORK/dkr.dump" || { echo "FAIL: derived-keys restore diverged"; exit 1; }
grep -vq '"sealed":true' "$WORK/dk.dump" && { echo "FAIL: a derived-keys registration carries no sealed levels"; exit 1; }
if "$WORK/anonymizer" dump -data-dir "$WORK/dkr" >/dev/null 2>&1; then
    echo "FAIL: derived-keys dir opened without its keyring"; exit 1
fi

echo "== OK: derived-keys store served, backed up and restored without journaling key material"
