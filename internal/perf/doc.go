// Package perf is the simulation-kernel performance harness: it measures
// host-side simulator throughput in KIPS (kilo simulated instructions
// retired per host second), enforces the steady-state allocation budget
// of the cycle cores (zero heap allocations per simulated cycle on the
// non-traced path), and pins the cycle-level results of both cores with
// golden-stats equality tests so kernel optimizations can never silently
// shift the paper's figures.
//
// # Kernels and workloads
//
// A Kernel names one simulated machine: a core registry name
// (internal/cores) at a Table I configuration. Kernels() returns
// the benchmarked set in fixed order — both cores at both widths, plus
// the "-membound" variants, which shrink the caches and stretch memory
// latency until runs are dominated by drained-pipeline miss windows
// (the regime the event-driven idle-skip fast path targets, DESIGN.md
// §12). All throughput measurements run BenchWorkload for BenchIters
// iterations so numbers are comparable across kernels and commits.
//
// # Measurement modes
//
// Three run modes share one harness, differing only in how the core is
// obtained and whether the idle-skip fast path is armed:
//
//   - Run / MeasureKIPS: fresh core per run, idle skipping on (the
//     default production configuration).
//   - RunWith / MeasureKIPSWith with Options{NoIdleSkip: true}: fresh
//     core per run, strict cycle-by-cycle stepping. The skip-on and
//     skip-off modes retire the same instructions in the same number of
//     simulated cycles — uarch.Stats are bit-identical by construction
//     (see DESIGN.md §12) — so the KIPS ratio between them is pure
//     kernel speedup, not a model change.
//   - Runner / MeasureBatchKIPS: one core constructed lazily and
//     recycled with Core.Reset between runs, so batched experiments
//     (cmd/experiments, cmd/straight-fuzz) pay construction and warmup
//     allocation once per configuration instead of once per run.
//
// # Consumers
//
// The same harness backs three consumers:
//
//   - go test -bench=KernelKIPS ./internal/perf  (interactive numbers)
//   - cmd/simbench, which writes/compares BENCH_simkernel.json (CI guard,
//     including the skip-off and batch modes)
//   - the golden and allocation tests in this package (tier-1 suite)
package perf
