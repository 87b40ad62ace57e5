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
# The session's core pool is shared by the sweep workers (and by
# straightd's flights): repeat the pooled-versus-fresh test under -race
# so the Get/Put interleavings vary.
go test -race -count 3 -run 'TestPooledCoresMatchFresh' ./internal/bench
go test -race ./internal/ptrace/...
# The result store and the straightd daemon are exercised by concurrent
# clients and writers by design, so both must be race-clean.
go test -race ./internal/resultstore/...
go test -race ./internal/served/...
# The flight-lifecycle tests (equal holders, last-holder cancel,
# shutdown) time their interleavings by hand: repeat them under -race,
# with one 10,000-point job.
go test -race -count 10 -run 'TestOwnerLeaves|TestLastHolder|TestWaiter|TestCoalescing|TestShutdown|TestTenThousandPointJob' ./internal/served
# Layer benchmarks of the daemon's store-hit path, of one content
# address, of the sampled fast-forward, of building each kernel's core,
# of a sampled window's set-up and of the MiniC-to-image pipeline, once
# each, as a smoke test (no threshold).
go test -run '^$' -bench 'BenchmarkWarmJob|BenchmarkPointKey|BenchmarkFastForward|BenchmarkCoreNew|BenchmarkWindowRestart|BenchmarkCompile' -benchtime 1x -benchmem ./internal/served ./internal/bench ./internal/sampling ./internal/perf ./internal/core
# The perf harness (golden stats + KIPS measurement) also runs inside
# the concurrent sweep machinery, so it must be race-clean; the
# allocation-budget tests skip themselves under -race (instrumentation
# allocates) and are re-run uninstrumented to enforce the 0-alloc
# budget on the non-traced step path, the core construction budget and
# the compile budget of one MiniC-to-image build.
go test -race ./internal/perf/...
go test ./internal/perf ./internal/core -run 'TestSteadyStateAllocs|TestCoreNewAllocs|TestCompileAllocs'
# Sampled simulation (DESIGN.md §16): windows fan out over a worker
# pool sharing one result store, so the runner must be race-clean. The
# accuracy matrix is too slow under instrumentation; the determinism,
# idle-skip-invariance, offset and streaming tests (worker-count
# invariance, snapshot-pool bound, error paths, stored checkpoint
# sequence, store-less heap bound, window cores and warm states reused
# across runs) exercise the same pool, store, and fully-cached fast path.
go test -race ./internal/sampling -run 'TestSampledDeterminism|TestSampledNoIdleSkipInvariance|TestSampledOffset|TestSampledWorkerInvariance|TestSnapshotPoolBound|TestStreamErrorPaths|TestFFSeqBytesPinned|TestStorelessRunHeapBound|TestTargetReusesWindowCores'

# Bounded differential co-simulation smoke: random programs through the
# full oracle stack (sverify, strict emulators, cross-ISA observables,
# both cycle cores in retirement lockstep). The FuzzLockstep corpus in
# internal/fuzzgen/testdata already replays inside `go test ./...` above;
# this additionally sweeps fresh seeds.
go run ./cmd/straight-fuzz -seeds 200 -budget 60s

# Fuzz smoke of the assembler driver shared by both ISAs (internal/asm):
# every input goes through sasm and rasm, and must never panic.
go test -run '^$' -fuzz FuzzAssemble -fuzztime 10s ./internal/asm
# Fuzz smoke of straightd's per-job decoder (internal/served): every body
# must decode to the points a plain json.Decoder yields, or be refused
# with the same status. The package links the whole simulator, so each
# coverage-guided run is slow; a bounded minimization keeps the smoke
# fuzzing rather than shrinking one input for a minute.
go test -run '^$' -fuzz FuzzDecodeJob -fuzztime 10s -fuzzminimizetime 50x ./internal/served

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
