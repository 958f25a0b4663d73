# Local verification mirrors .github/workflows/ci.yml: the same commands,
# so green locally means green in CI.

GO ?= go

.PHONY: all build test test-benchmark test-full race bench bench-engine bench-smoke check-allocs staticcheck govulncheck fmt fmt-check vet ci linkcheck examples fuzz-smoke e2e e2e-repl e2e-tenants

all: build test

build:
	$(GO) build ./...

# Fast suite, what CI runs on every push (experiment harness skipped).
test:
	$(GO) test -short ./...

# The benchmark harness is a module of its own (benchmark/go.mod) that
# imports internal/anonymizer; `go test ./...` does not reach it, so a
# signature change there would otherwise break the judge silently (the
# CI benchmark-module job).
test-benchmark:
	cd benchmark && $(GO) test .

# Full suite including the ~30s experiment harness (tier-1 verify).
test-full:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/anonymizer ./internal/anonymizer/repl ./internal/anonymizer/tenant ./internal/cloak

# Full experiment harness + service throughput benchmarks (the nightly job).
bench: bench-engine
	$(GO) run ./cmd/reversecloak-bench -json bench-results.json
	$(GO) test -run xxx -bench 'BenchmarkServerThroughput|BenchmarkAnonymizeBatch' -benchtime 2000x ./internal/anonymizer

# The cloak engine alone at the paper's scale (atlanta, 10 000 cars, the
# default profile, density-weighted requesters): ns (Anonymize also p50
# and p99), allocs and the exact nodes / exhausted searches / tagged levels
# per op, for RGE and RPLE, Anonymize and Deanonymize. About 10 s, most of
# it building RPLE's tables; the place an engine change starts before the
# full harness.
# BENCHTIME=3x is what the CI bench-smoke job runs.
BENCHTIME ?= 20x
bench-engine:
	$(GO) test -run xxx -bench BenchmarkPaper -benchtime $(BENCHTIME) ./internal/cloak

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet (the CI lint job's pinned version; needs
# network on first run to fetch the tool).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2023.1.7 ./...

# Known-vulnerability scan over the module graph and the stdlib calls we
# reach (non-blocking in CI: an advisory published overnight must not
# turn unrelated pushes red; needs network to fetch the tool and the
# vuln DB).
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# Service experiments only, tiny iteration counts: fails fast on WAL /
# fsync / group-commit regressions. This target is the one list of smoke
# experiments — the CI bench-smoke job runs `make bench-smoke`.
bench-smoke:
	$(GO) run ./cmd/reversecloak-bench -only E17,E18,E21,E22,E23 -trials 2 -junctions 400 -segments 540
	$(MAKE) bench-engine BENCHTIME=3x

# Allocation regression gate over the wire hot path: allocs/op of the
# pinned benchmarks against internal/anonymizer/testdata/alloc_baseline.json
# (the CI test job's blocking step).
check-allocs:
	bash scripts/check-allocs.sh

# Short native-fuzz pass over the byte-facing decoders (the CI
# fuzz-smoke step): corrupt input must never panic or over-read, and
# the JSON and binary wire codecs must decode identically.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWALRecord$$' -fuzztime 15s ./internal/anonymizer
	$(GO) test -run '^$$' -fuzz '^FuzzReadArchive$$' -fuzztime 15s ./internal/anonymizer
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 15s ./internal/anonymizer
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBinaryFrame$$' -fuzztime 15s ./internal/anonymizer

# End-to-end data-dir lifecycle: serve -> loadgen -> hot backup ->
# restore -> reshard -> byte-identical dumps (the CI e2e-backup job).
e2e:
	sh scripts/e2e-backup.sh

# End-to-end replication: leader -> follower bootstrap -> catch-up ->
# leader kill -> promote -> fenced stale leader -> byte-identical dumps,
# with an incremental-backup leg (the CI e2e-repl job).
e2e-repl:
	sh scripts/e2e-repl.sh

# End-to-end multi-tenant plane: auth gate -> capability denials ->
# rate-limit throttling -> operator backup -> live revocation ->
# /metrics agreement (the CI e2e-tenants job).
e2e-tenants:
	sh scripts/e2e-tenants.sh

# Verify that every relative markdown link resolves.
linkcheck:
	sh scripts/check-links.sh

# Build and run every example program in -short mode (the CI docs job).
examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" -short || exit 1; done

# Everything the blocking CI jobs run.
ci: fmt-check vet build test test-benchmark race linkcheck examples fuzz-smoke check-allocs e2e e2e-repl e2e-tenants
