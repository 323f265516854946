GO ?= go

.PHONY: all build vet test test-short test-race fuzz-smoke bench-sweep trace-determinism explain-determinism serving-determinism policylab-determinism serve-smoke byte-identity check verify

all: build

build:
	$(GO) build ./...

# go vet, then gofmt -l over every Go file outside hidden directories: any
# output fails.
vet:
	$(GO) vet ./...
	@out=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; fi

# Tier-1: what must stay green on every change (~6 min; -short for ~20 s).
test: build
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full suite plus the quick serial-vs-parallel determinism check under the
# race detector.
test-race:
	$(GO) test -race -timeout 20m ./...

# Short fuzz runs of the six fuzz targets with checked-in corpora: the
# -faults spec parser, the estimator profile loader, the makespan
# attribution (explain JSON) decoder, the kernel-vs-oracle scenario differ
# (byte-decoded concurrent programs run on both sim kernels), the -arrivals
# spec parser, and the latency quantile-sketch decoder.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzLoadProfile$$' -fuzztime 10s ./internal/estimator
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/span
	$(GO) test -run '^$$' -fuzz '^FuzzKernelScenario$$' -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrivals$$' -fuzztime 10s ./internal/arrival
	$(GO) test -run '^$$' -fuzz '^FuzzSketchDecode$$' -fuzztime 10s ./internal/obs

# Regenerates BENCH_sweep.json: full-report wall time serial vs parallel,
# points/sec, speedup, byte-identity, and kernel allocs/op.
bench-sweep:
	$(GO) run ./cmd/benchsweep -o BENCH_sweep.json

# Same-seed observability captures must be byte-identical: run the fig7
# capture twice through the CLI and compare the trace + metrics artifacts.
trace-determinism:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/anthill-sim -exp fig7 -seed 1 -o /dev/null \
	    -trace "$$dir/a.trace.json" -metrics-out "$$dir/a.metrics.json"; \
	$(GO) run ./cmd/anthill-sim -exp fig7 -seed 1 -o /dev/null \
	    -trace "$$dir/b.trace.json" -metrics-out "$$dir/b.metrics.json"; \
	cmp "$$dir/a.trace.json" "$$dir/b.trace.json" && \
	cmp "$$dir/a.metrics.json" "$$dir/b.metrics.json" && \
	echo "trace-determinism: byte-identical"

# The makespan-attribution artifacts must be deterministic: pooled capture
# runs under the race detector, plus the fig10 explain JSON byte-identity
# between a serial and a 4-worker CLI invocation.
explain-determinism:
	$(GO) test -race -run '^TestExplain' -timeout 20m ./internal/experiments
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/anthill-sim -exp fig10 -seed 1 -o /dev/null \
	    -parallel=false -explain-out "$$dir/a.explain.json"; \
	$(GO) run ./cmd/anthill-sim -exp fig10 -seed 1 -o /dev/null \
	    -parallel -workers 4 -explain-out "$$dir/b.explain.json"; \
	cmp "$$dir/a.explain.json" "$$dir/b.explain.json" && \
	echo "explain-determinism: byte-identical"

# The open-system serving report must be byte-identical serial vs 4-worker:
# the in-process sweep across seeds 1-3 (under the race detector), plus one
# CLI-level comparison with a scripted arrival schedule.
serving-determinism:
	$(GO) test -race -run '^TestServing' -timeout 20m ./internal/experiments
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for seed in 1 2 3; do \
	  $(GO) run ./cmd/anthill-sim -exp serving -seed $$seed -parallel=false \
	      -arrivals 'poisson:rate=4000,n=600;burst:rate=1000,n=200,peak=4,period=50ms' \
	      -o "$$dir/a.md"; \
	  $(GO) run ./cmd/anthill-sim -exp serving -seed $$seed -parallel -workers 4 \
	      -arrivals 'poisson:rate=4000,n=600;burst:rate=1000,n=200,peak=4,period=50ms' \
	      -o "$$dir/b.md"; \
	  cmp "$$dir/a.md" "$$dir/b.md" || exit 1; \
	done; \
	echo "serving-determinism: byte-identical (seeds 1-3)"

# The policy-lab matrix (six policies x three cluster shapes, with stateful
# rival schedulers) must be byte-identical serial vs 4-worker: the
# in-process sweep across seeds 1-3 (under the race detector), plus one
# CLI-level comparison per seed.
policylab-determinism:
	$(GO) test -race -run '^TestPolicylab' -timeout 20m ./internal/experiments
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for seed in 1 2 3; do \
	  $(GO) run ./cmd/anthill-sim -exp policylab -seed $$seed -parallel=false \
	      -o "$$dir/a.md"; \
	  $(GO) run ./cmd/anthill-sim -exp policylab -seed $$seed -parallel -workers 4 \
	      -o "$$dir/b.md"; \
	  cmp "$$dir/a.md" "$$dir/b.md" || exit 1; \
	done; \
	echo "policylab-determinism: byte-identical (seeds 1-3)"

# End-to-end gate for the live demo server: build cmd/anthill-serve, start
# it on a short schedule, poll /healthz, assert the /metrics families and an
# SSE frame, then SIGTERM and require exit 0.
serve-smoke:
	$(GO) test -run '^TestServeSmoke$$' -count=1 -timeout 5m ./cmd/anthill-serve

# The full seed-1 report must match the checked-in digest byte-for-byte
# (scripts/exp_all_seed1.sha256). Regenerate the digest only for intentional
# model changes; a mismatch after a refactor means determinism broke.
byte-identity:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/anthill-sim -exp all -seed 1 -parallel=false -o "$$dir/exp_all_seed1.md"; \
	want=$$(cut -d' ' -f1 scripts/exp_all_seed1.sha256); \
	got=$$(sha256sum "$$dir/exp_all_seed1.md" | cut -d' ' -f1); \
	if [ "$$got" = "$$want" ]; then echo "byte-identity: exp all seed 1 matches digest"; \
	else echo "byte-identity: digest mismatch (want $$want, got $$got)"; exit 1; fi

# Mid-weight verification: vet + tier-1 tests + fuzz smoke + the chaos
# fault-injection determinism check (serial vs 4 workers, seeds 1-3) + the
# trace/metrics, explain-artifact, serving, policy-lab and full-report
# byte-identity gates + the live demo-server smoke test.
verify: vet test fuzz-smoke trace-determinism explain-determinism serving-determinism policylab-determinism serve-smoke byte-identity
	$(GO) test -run '^TestChaosDeterminism$$' -timeout 20m ./internal/experiments

# Tier-1+ pre-merge verification (vet, build, race, determinism seeds 1-3,
# sweep benchmark). See scripts/check.sh for knobs.
check:
	./scripts/check.sh
