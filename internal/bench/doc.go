// Package bench is the experiment harness: for every table and figure
// of the paper's evaluation (§VI) it compiles the workloads, runs the
// cycle simulators in the Table I configurations, and produces the same
// rows or series the paper reports. The root bench_test.go exposes one
// testing.B benchmark per experiment, and cmd/experiments prints them
// all.
//
// # Sessions
//
// A Session owns all state point execution shares: the build cache,
// the result store and its hit/miss/recompute counters, the journal,
// the worker count, an optional Remote and the trace target. The figure
// functions are Session methods; each main builds one session, and two
// sessions in one process share nothing. Default is the session behind
// the few package-level wrappers (ExecutePoint, SetStore,
// ResetBuildCache, BuildSTRAIGHT, BuildRISCV) that the benchmark module
// compiles against.
//
// Session.Execute runs one point under a context. Cancelling it, or
// Session.Interrupt, raises that run's own engine interrupt flag, so
// the point stops within one advance with uarch.ErrInterrupted while
// other points, and other sessions, run on. The flag is registered only
// when the point simulates: a store hit allocates nothing for it.
//
// Execute returns an Outcome, the one record of the point's fate that
// straightd carries on to its /v1/run record: a Status (simulated,
// store hit, failed, cancelled, or, behind the daemon, shutdown), the
// content address, the stored bytes, the simulated result, any store
// put error and the error that stopped the point. A failed put does not
// fail the point: the result is delivered with PutErr set, and the
// session counts the failure and keeps the first (PutErrors).
//
// # Sweep architecture
//
// Each experiment decomposes its figure into independent SweepPoints —
// one (workload, engine, uarch config, compiler mode, iteration count)
// simulation each — and submits the whole list to Session.Run, which
// executes points on Workers goroutines (the cmd/experiments -j flag;
// GOMAXPROCS by default) and writes each result into a slice slot
// indexed by the point's submission position, so results always come
// back in paper order no matter which worker finished first.
//
// # Build cache
//
// Compiled images are memoized per (workload, iters, target, maxdist,
// mode) key with singleflight semantics: the first caller — concurrent
// callers included — runs the build, everyone else blocks on it and
// receives the same *program.Image. A build is one core.CompileC call,
// the one MiniC-to-image pipeline. For STRAIGHT, the backend's
// post-compile assertion verifies the image at the key's maxdist and
// hands over that image, so each cached image was verified exactly
// once, on the bytes the sweep simulates. Images are immutable after assembly
// and every engine copies text and data into its own memory before
// running, so one cached image is safely shared read-only by any number
// of concurrent simulations (TestSharedImagesNotMutated proves this).
// Each build lowers its own private IR module: the backends annotate
// the modules they compile, so sharing one module across builds would
// make code generation order-dependent.
//
// # Determinism guarantee
//
// A figure table is a pure function of its SweepPoints: builds are
// deterministic per key, simulations are deterministic per
// (image, config), results are assembled by submission index, and no
// mutable state is shared between in-flight points. Consequently
// cmd/experiments produces byte-identical tables at -j 1 and -j N
// (TestRunnerDeterministicAcrossParallelism), and the journal consumed
// by -json lists points in submission order with only wall-clock
// fields varying between runs.
package bench
