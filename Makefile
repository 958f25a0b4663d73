# Local verification mirrors .github/workflows/ci.yml: the same commands,
# so green locally means green in CI.

GO ?= go

.PHONY: all build test test-engine test-benchmark test-full race bench bench-engine bench-smoke experiments check-allocs staticcheck govulncheck fmt fmt-check vet ci linkcheck fuzz-smoke e2e e2e-repl e2e-tenants

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

# The cloak engine's paper-scale referees, which -short skips: the atlanta
# rows of engine_golden.json, TestPaperCounts, the atlanta arm of
# TestVerifyMatchesReaderSearch and the atlanta table digests. About 10 s
# (a blocking step of the CI test job).
test-engine:
	$(GO) test ./internal/cloak

# Full suite, including the experiment-harness tests -short skips
# (tier-1 verify).
test-full:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/anonymizer ./internal/anonymizer/repl ./internal/anonymizer/tenant ./internal/cloak ./cmd/anonymizer ./internal/roadnet ./internal/prng ./internal/regcache ./internal/accessctl .

# The paper's experiments + service throughput benchmarks (the nightly job).
bench: bench-engine experiments
	$(GO) test -run xxx -bench 'BenchmarkServerThroughput|BenchmarkPipelinedSharedClient|BenchmarkReducePipelinedHits' -benchtime 2000x ./internal/anonymizer

# The cloak engine alone at the paper's scale (atlanta, 10 000 cars, the
# default profile, density-weighted requesters): ns (Anonymize also p50
# and p99), allocs and the exact nodes / exhausted searches / tagged levels
# per op, for RGE and RPLE, Anonymize and Deanonymize; then serve's start
# (map, simulation and both engines) at 1x and 4x atlanta. About 15 s; the
# place an engine or start change starts before the full harness.
# BENCHTIME=3x is what the CI bench-smoke job runs.
BENCHTIME ?= 20x
bench-engine:
	$(GO) test -run xxx -bench BenchmarkPaper -benchtime $(BENCHTIME) ./internal/cloak
	$(GO) test -run xxx -bench BenchmarkStart -benchtime $(BENCHTIME) ./cmd/anonymizer

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

# The paper's experiments E5..E15 on the atlanta map with 10 000 cars,
# about 5 s. EXPERIMENTS.json is checked in: rerun this target and commit
# the diff when a change moves the paper's figures (the nightly CI job
# uploads it too).
experiments:
	$(GO) run ./cmd/reversecloak-bench -json EXPERIMENTS.json

# A smoke that the engine benchmarks still run (3x, not a measurement),
# then one short mixed_dense leg of the end-to-end benchmark: a real serve
# with fsync=always, group commit, snapshots and a kill -9 recovery drill.
# It exits non-zero if any answer or the drill is wrong. About 30 s with
# the build; the CI bench-smoke job runs `make bench-smoke`.
bench-smoke:
	$(MAKE) bench-engine BENCHTIME=3x
	bash benchmark/run.sh -workload mixed_dense -seconds 1

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
# restore -> byte-identical dumps, plus the fixture archives re-striped
# to 16 and the layout refusals (the CI e2e-backup job).
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

# Everything the blocking CI jobs run.
ci: fmt-check vet build test test-engine test-benchmark race linkcheck fuzz-smoke check-allocs e2e e2e-repl e2e-tenants
