package perf

import (
	"runtime"
	"testing"

	"straight/internal/cores"
	"straight/internal/cores/engine"
)

// allocWarmupCycles runs the simulation deep into its main loop before
// measuring: pools, rings, the sparse memory's pages and the cache
// hierarchy are all at steady-state capacity by then.
const allocWarmupCycles = 200_000

// allocMeasureCycles is the per-sample window AllocsPerRun measures.
const allocMeasureCycles = 5_000

// allocIters sizes the workload so it cannot exit inside the warmup plus
// the eleven AllocsPerRun sample windows, even at 4-way IPC.
const allocIters = 3 * BenchIters

// runAllocBudget asserts the kernel's per-cycle step path performs zero
// heap allocations in steady state on the non-traced path. This is the
// enforcement half of the allocation-free kernel: any regression (a map
// in the issue loop, an escaping closure, slice append churn, a policy
// hook argument escaping through the interface) fails here before it
// shows up as a KIPS regression in CI.
func runAllocBudget(t *testing.T, k Kernel) {
	t.Helper()
	im, err := BuildImage(k, BenchWorkload, allocIters)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{MaxCycles: runCycleCap}
	c, err := newSim(k, im, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunCycles(opts, allocWarmupCycles); err != nil {
		t.Fatal(err)
	}
	if c.HasExited() {
		t.Fatalf("workload exited during warmup (%d cycles); grow BenchIters", allocWarmupCycles)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.RunCycles(opts, allocMeasureCycles); err != nil {
			t.Fatal(err)
		}
	})
	if c.HasExited() {
		t.Fatalf("workload exited during measurement; grow BenchIters")
	}
	if allocs != 0 {
		t.Errorf("%s: %.1f heap allocations per %d steady-state cycles, want 0",
			k.Name, allocs, allocMeasureCycles)
	}
}

// allocKernels filters AllKernels down to one kind.
func allocKernels(t *testing.T, kind CoreKind) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, k := range AllKernels() {
		if k.Kind != kind {
			continue
		}
		k := k
		t.Run(k.Name, func(t *testing.T) { runAllocBudget(t, k) })
	}
}

// TestSteadyStateAllocsStraight enforces the zero-allocation budget on
// the STRAIGHT policy at both widths.
func TestSteadyStateAllocsStraight(t *testing.T) { allocKernels(t, KindStraight) }

// TestSteadyStateAllocsSS is the same budget for the superscalar
// policy: rename, free-list and ROB-walk machinery included.
func TestSteadyStateAllocsSS(t *testing.T) { allocKernels(t, KindSS) }

// TestSteadyStateAllocsCG is the same budget for the coarse-grain
// policy: block gating must not allocate either.
func TestSteadyStateAllocsCG(t *testing.T) { allocKernels(t, KindCG) }

// Construction budgets of one core: every sweep point, straightd miss
// and sampled-window worker builds one. The cache levels are flat
// set-major arrays and the wakeup scheduler shares one waiter pool of
// 2×SchedulerSize nodes, so a core is a few dozen allocations; the
// per-set cache slices and per-register waiter lists they replaced cost
// about 19,000 allocations and 1.9 MB on the 4-way models.
const (
	coreNewAllocs  = 200
	coreNewKBLimit = 800
)

// TestCoreNewAllocs holds every kernel's core construction to the
// budgets above.
func TestCoreNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, k := range AllKernels() {
		im, err := BuildImage(k, BenchWorkload, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cores.Lookup(string(k.Kind))
		if err != nil {
			t.Fatal(err)
		}
		newCore := func() { m.New(k.Cfg, im, engine.Options{}) }
		if n := testing.AllocsPerRun(5, newCore); n > coreNewAllocs {
			t.Errorf("%s: New makes %.0f allocations, want <= %d", k.Name, n, coreNewAllocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		newCore()
		runtime.ReadMemStats(&after)
		if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb > coreNewKBLimit {
			t.Errorf("%s: New allocates %d KB, want <= %d", k.Name, kb, coreNewKBLimit)
		}
	}
}
