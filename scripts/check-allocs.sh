#!/usr/bin/env bash
# check-allocs.sh — allocation regression gate over the wire hot path.
#
# Re-runs the pinned benchmarks with -benchmem and compares allocs/op
# against internal/anonymizer/testdata/alloc_baseline.json, allowing
# 25% (+1) headroom for scheduler noise. Exits non-zero on regression;
# CI's test job and `make ci` run it as a blocking step (`make
# check-allocs`). ALLOC_BENCHTIME overrides the iteration count (default
# 300x).
set -euo pipefail
cd "$(cd "$(dirname "$0")" && pwd)/.."

baseline=internal/anonymizer/testdata/alloc_baseline.json
bench='BenchmarkServerThroughput/codec=(json|binary)/clients=64|BenchmarkReduceServerSide|BenchmarkReduceDerived|BenchmarkReduceCached|BenchmarkWALAppend'
out=$(mktemp)
trap 'rm -f "$out"' EXIT

go test -run '^$' -bench "$bench" -benchtime "${ALLOC_BENCHTIME:-300x}" -benchmem \
	./internal/anonymizer/ | tee "$out"

status=0
while IFS=' ' read -r name want; do
	# Benchmark result lines carry a -GOMAXPROCS suffix on the name and
	# end in "<n> allocs/op".
	got=$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" { print $(NF-1); exit }' "$out")
	if [ -z "$got" ]; then
		echo "check-allocs: $name: no result (benchmark renamed?)" >&2
		status=1
		continue
	fi
	allow=$((want + want / 4 + 1))
	if [ "$got" -gt "$allow" ]; then
		echo "check-allocs: REGRESSION $name: $got allocs/op exceeds baseline $want (limit $allow)" >&2
		status=1
	else
		echo "check-allocs: $name: $got allocs/op (baseline $want, limit $allow)"
	fi
done < <(sed -n 's/^[[:space:]]*"\(Benchmark[^"]*\)":[[:space:]]*\([0-9][0-9]*\).*$/\1 \2/p' "$baseline")
exit $status
