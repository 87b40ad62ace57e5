#!/bin/sh
# Tier-1 verification for this repository (see README.md and ROADMAP.md):
# build everything, vet, run the full test suite, and re-run the
# experiment harness under the race detector — the sweep runner executes
# simulations concurrently, so bench must stay race-clean.
#
# The test suite includes the static invariant verifier (internal/sverify):
# every compiled image in difftest/coretest/bench is proven to satisfy the
# STRAIGHT distance invariants as part of `go test ./...`.
set -ex

go build ./...
go vet ./...

# Project analyzers (DESIGN.md §13): resetcomplete, hotpathalloc,
# statscoverage, tracerguard, run through the vet -vettool protocol.
go build -o bin/straight-lint ./cmd/straight-lint
go vet -vettool=bin/straight-lint ./...

# staticcheck, version-pinned in scripts/staticcheck-version (the single
# tracked pin; CI and the Makefile read the same file). `go run` fetches
# it from the module cache or the network; when neither has it (offline
# containers), the availability probe fails and we warn and continue.
SCVER=$(cat "$(dirname "$0")/staticcheck-version")
if go run "honnef.co/go/tools/cmd/staticcheck@$SCVER" -version >/dev/null 2>&1; then
    go run "honnef.co/go/tools/cmd/staticcheck@$SCVER" ./...
else
    echo "warning: staticcheck@$SCVER unavailable (offline and not in the module cache); skipping" >&2
fi

go test ./...
# The benchmark is a nested module (benchmark/go.mod), so the root
# `./...` patterns above never compile it. Vet and test it here so an
# API change that breaks the benchmark fails tier-1.
(cd benchmark && go vet ./... && go test ./...)
go test -race ./internal/bench/...
go test -race ./internal/ptrace/...
# The result store and the straightd daemon are exercised by concurrent
# clients and writers by design, so both must be race-clean.
go test -race ./internal/resultstore/...
go test -race ./internal/served/...
# The perf harness (golden stats + KIPS measurement) also runs inside
# the concurrent sweep machinery, so it must be race-clean; the
# allocation-budget tests skip themselves under -race (instrumentation
# allocates) and are re-run uninstrumented to enforce the 0-alloc
# budget on the non-traced step path.
go test -race ./internal/perf/...
go test ./internal/perf -run TestSteadyStateAllocs
# Sampled simulation (DESIGN.md §16): windows fan out over a worker
# pool sharing one result store, so the runner must be race-clean. The
# accuracy matrix is too slow under instrumentation; the determinism,
# idle-skip-invariance and offset tests exercise the same pool, store,
# and fully-cached fast path.
go test -race ./internal/sampling -run 'TestSampledDeterminism|TestSampledNoIdleSkipInvariance|TestSampledOffset'

# Bounded differential co-simulation smoke: random programs through the
# full oracle stack (sverify, strict emulators, cross-ISA observables,
# both cycle cores in retirement lockstep). The FuzzLockstep corpus in
# internal/fuzzgen/testdata already replays inside `go test ./...` above;
# this additionally sweeps fresh seeds.
go run ./cmd/straight-fuzz -seeds 200 -budget 60s

# Smoke-test the observability pipeline end to end: run both simulators
# with -trace on tiny programs, then analyze the resulting Kanata files
# with straight-trace (which also validates the format by parsing).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

cat >"$tmpdir/fib.sasm" <<'EOF'
main:
    ADDi [0], 0
    ADDi [0], 1
    ADD  [1], [2]
    ADD  [1], [2]
    ADD  [1], [2]
    ADDi [0], 0
    SYS  exit, [1]
EOF
go run ./cmd/straight-sim -trace "$tmpdir/fib.kanata" "$tmpdir/fib.sasm"
go run ./cmd/straight-trace -windows "$tmpdir/fib.kanata" >/dev/null

cat >"$tmpdir/loop.rasm" <<'EOF'
main:
    addi t0, zero, 0
    addi t1, zero, 3
loop:
    addi t0, t0, 1
    blt  t0, t1, loop
    addi a0, zero, 0
    addi a7, zero, 0
    ecall
EOF
go run ./cmd/riscv-sim -trace "$tmpdir/loop.kanata" "$tmpdir/loop.rasm"
go run ./cmd/straight-trace "$tmpdir/loop.kanata" >/dev/null

# Sampled-simulation CLI smoke (DESIGN.md §16): both simulators under
# -sample with a small dense plan (these programs retire a handful of
# instructions; the default 1M interval would take no checkpoints).
go run ./cmd/straight-sim -sample -sample-interval 1024 -sample-warmup 256 -sample-window 1024 "$tmpdir/fib.sasm"
go run ./cmd/riscv-sim -sample -sample-interval 1024 -sample-warmup 256 -sample-window 1024 "$tmpdir/loop.rasm"

# Persistent result store (DESIGN.md §14): a second run against the warm
# store must re-simulate nothing (-require-warm) and reproduce the cold
# run's points byte-for-byte.
go run ./cmd/experiments -quick -store "$tmpdir/results.store" -json "$tmpdir/cold.json" >/dev/null
go run ./cmd/experiments -quick -store "$tmpdir/results.store" -json "$tmpdir/warm.json" -require-warm >/dev/null
go run ./scripts/comparepoints.go "$tmpdir/cold.json" "$tmpdir/warm.json"

# straightd daemon smoke: serve two sweeps (the second entirely from the
# daemon's store), then SIGTERM for a graceful store flush; the daemon
# must exit cleanly.
go build -o "$tmpdir/straightd" ./cmd/straightd
"$tmpdir/straightd" -addr 127.0.0.1:18373 -store "$tmpdir/daemon.store" &
daemon_pid=$!
sleep 1
go run ./cmd/experiments -quick -server http://127.0.0.1:18373 >/dev/null
go run ./cmd/experiments -quick -server http://127.0.0.1:18373 >/dev/null
kill -TERM "$daemon_pid"
wait "$daemon_pid"
