package perf

import (
	"testing"

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
