#!/bin/sh
# Tier-1+ verification: everything the repo promises, in one command.
#
#   scripts/check.sh                       full pass (roughly 25 min on one core,
#                                          much faster on a multi-core host)
#   SKIP_BENCH=1 scripts/check.sh          skip the BENCH_sweep.json regeneration
#   ANTHILL_DETERMINISM_SEEDS=1 scripts/check.sh
#                                          check serial-vs-parallel byte-identity
#                                          for seed 1 only (default here: seeds 1-3)
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l  (every Go file must be gofmt-formatted)"
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting (run gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test -race ./...  (full suite + quick determinism under the race detector)"
go test -race -timeout 20m ./...

echo "== kernel differential  (continuation kernel vs goroutine oracle, -race)"
go test -race -run '^TestDiff|^TestProperty' -count=1 -timeout 10m ./internal/sim

echo "== go test ./...  (tier-1 suite + full-report determinism, seeds 1-${ANTHILL_DETERMINISM_SEEDS:-3})"
ANTHILL_DETERMINISM_SEEDS="${ANTHILL_DETERMINISM_SEEDS:-3}" go test -timeout 40m ./...

echo "== fuzz smoke  (-faults parser, estimator profile decoder, explain JSON decoder, kernel scenarios, -arrivals parser, quantile-sketch decoder)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/fault
go test -run '^$' -fuzz '^FuzzLoadProfile$' -fuzztime 10s ./internal/estimator
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/span
go test -run '^$' -fuzz '^FuzzKernelScenario$' -fuzztime 15s ./internal/sim
go test -run '^$' -fuzz '^FuzzParseArrivals$' -fuzztime 10s ./internal/arrival
go test -run '^$' -fuzz '^FuzzSketchDecode$' -fuzztime 10s ./internal/obs

echo "== message-path alloc gates  (blocking + step flavours, pooled send/copy records, demand round; without -race)"
go test -run '^TestMessagePath|^TestSpawnPooling|^TestEventLoop|^TestZero' -count=1 -timeout 5m ./internal/sim
go test -run '^TestSendThenAllocs$|^TestCopyThenAllocs$' -count=1 -timeout 5m ./internal/hw
go test -run '^TestFetchRoundAllocs$' -count=1 -timeout 5m ./internal/core

echo "== message-path differential  (step helpers vs blocking reference, full hook trace)"
go test -run '^TestStepHelpersMatchBlocking' -count=1 -timeout 10m ./internal/core
go test -run '^TestSendThen|^TestCopyThen' -count=1 -timeout 5m ./internal/hw

echo "== chaos determinism  (serial vs 4-worker fault-injection sweeps, seeds 1-3)"
go test -run '^TestChaosDeterminism$' -timeout 20m ./internal/experiments

echo "== serving determinism  (serial vs 4-worker open-system sweeps, seeds 1-3)"
go test -race -run '^TestServing' -timeout 20m ./internal/experiments
servingspec='poisson:rate=4000,n=600;burst:rate=1000,n=200,peak=4,period=50ms'
servingdir=$(mktemp -d)
for seed in 1 2 3; do
    go run ./cmd/anthill-sim -exp serving -seed "$seed" -parallel=false \
        -arrivals "$servingspec" -o "$servingdir/a.md"
    go run ./cmd/anthill-sim -exp serving -seed "$seed" -parallel -workers 4 \
        -arrivals "$servingspec" -o "$servingdir/b.md"
    cmp "$servingdir/a.md" "$servingdir/b.md"
done
rm -rf "$servingdir"

echo "== policylab determinism  (serial vs 4-worker rival-scheduler matrix, seeds 1-3)"
go test -race -run '^TestPolicylab' -timeout 20m ./internal/experiments
labdir=$(mktemp -d)
for seed in 1 2 3; do
    go run ./cmd/anthill-sim -exp policylab -seed "$seed" -parallel=false \
        -o "$labdir/a.md"
    go run ./cmd/anthill-sim -exp policylab -seed "$seed" -parallel -workers 4 \
        -o "$labdir/b.md"
    cmp "$labdir/a.md" "$labdir/b.md"
done
rm -rf "$labdir"

echo "== serve smoke  (live demo server: healthz, /metrics families, SSE frame, clean SIGTERM)"
go test -run '^TestServeSmoke$' -count=1 -timeout 5m ./cmd/anthill-serve

echo "== trace determinism  (same-seed -trace/-metrics-out captures must be byte-identical)"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/anthill-sim -exp fig7 -seed 1 -o /dev/null \
    -trace "$tracedir/a.trace.json" -metrics-out "$tracedir/a.metrics.json"
go run ./cmd/anthill-sim -exp fig7 -seed 1 -o /dev/null \
    -trace "$tracedir/b.trace.json" -metrics-out "$tracedir/b.metrics.json"
cmp "$tracedir/a.trace.json" "$tracedir/b.trace.json"
cmp "$tracedir/a.metrics.json" "$tracedir/b.metrics.json"

echo "== report determinism  (serial vs 4-worker CLI reports must be byte-identical)"
go run ./cmd/anthill-sim -exp fig7 -seed 2 -parallel=false -o "$tracedir/a.report.md"
go run ./cmd/anthill-sim -exp fig7 -seed 2 -parallel -workers 4 -o "$tracedir/b.report.md"
cmp "$tracedir/a.report.md" "$tracedir/b.report.md"

echo "== explain determinism  (serial vs 4-worker makespan-attribution artifacts must be byte-identical)"
go test -race -run '^TestExplain' -timeout 20m ./internal/experiments
go run ./cmd/anthill-sim -exp fig10 -seed 1 -o /dev/null \
    -parallel=false -explain-out "$tracedir/a.explain.json"
go run ./cmd/anthill-sim -exp fig10 -seed 1 -o /dev/null \
    -parallel -workers 4 -explain-out "$tracedir/b.explain.json"
cmp "$tracedir/a.explain.json" "$tracedir/b.explain.json"

echo "== report byte-identity  (-exp all -seed 1 against the checked-in digest)"
go run ./cmd/anthill-sim -exp all -seed 1 -parallel=false -o "$tracedir/exp_all_seed1.md"
want=$(cut -d' ' -f1 scripts/exp_all_seed1.sha256)
got=$(sha256sum "$tracedir/exp_all_seed1.md" | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
    echo "exp_all_seed1.md digest mismatch:" >&2
    echo "  want $want (scripts/exp_all_seed1.sha256)" >&2
    echo "  got  $got" >&2
    echo "The full seed-1 report changed. If the change is an intentional model" >&2
    echo "update, regenerate the digest; if this is a refactor, it broke" >&2
    echo "byte-for-byte determinism." >&2
    exit 1
fi

if [ -z "${SKIP_BENCH:-}" ]; then
    echo "== benchsweep  (regenerates BENCH_sweep.json)"
    go run ./cmd/benchsweep -o BENCH_sweep.json
fi

echo "check.sh: all green"
