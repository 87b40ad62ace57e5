#!/bin/sh
# Simulation-kernel performance check (see DESIGN.md §11 and
# EXPERIMENTS.md): run the KIPS benchmarks, then compare freshly
# measured throughput against the checked-in BENCH_simkernel.json via
# cmd/simbench, failing on a >15% regression. The baseline covers every
# policy core — straightcore, sscore, and the coarse-grain cgcore — in
# both widths, so a slowdown in the shared engine or in any one policy
# trips the guard.
#
# Usage:
#   scripts/bench.sh          # benchmark + regression check
#   scripts/bench.sh update   # re-record BENCH_simkernel.json (new host
#                             # or intentional perf change)
#
# KIPS is host-dependent; the baseline is meaningful on hosts comparable
# to the one that recorded it. CI records/compares on its own runner
# class. Profiles for failed runs: re-run the benchmarks with
#   go test ./internal/perf -run xxx -bench BenchmarkKernelKIPS \
#       -benchtime 1x -cpuprofile cpu.prof -memprofile mem.prof
set -ex

cd "$(dirname "$0")/.."

# Steady-state allocation budget: 0 heap allocations per simulated cycle.
go test ./internal/perf -run TestSteadyStateAllocs -v

go test ./internal/perf -run xxx -bench BenchmarkKernelKIPS -benchtime 1x -count 3

if [ "$1" = "update" ]; then
    go run ./cmd/simbench -o BENCH_simkernel.json
else
    # The same guards as CI. Both stepping modes: the event-driven
    # idle-skip fast path (default) and strict cycle-by-cycle stepping
    # (-noskip), so neither can regress silently (see DESIGN.md §12).
    go run ./cmd/simbench -compare BENCH_simkernel.json
    go run ./cmd/simbench -noskip -compare BENCH_simkernel.json
    # Batch core reuse (DESIGN.md §12.3): one core recycled through
    # Reset, which keeps its predecoded text table for an unchanged
    # image and rebuilds it for a new one.
    go run ./cmd/simbench -batch -compare BENCH_simkernel.json
    # Sampled simulation steady state (DESIGN.md §16): effective KIPS of
    # fully-cached sampled runs on the long-workload tier.
    go run ./cmd/simbench -sampled -compare BENCH_simkernel.json
fi
