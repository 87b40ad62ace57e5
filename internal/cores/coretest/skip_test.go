package coretest_test

import (
	"reflect"
	"testing"

	"straight/internal/backend/straightbe"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/program"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// skipRun is everything observable from one simulation: if two runs
// agree on all of it, they are indistinguishable to every consumer
// (experiments, goldens, the lockstep fuzzer).
type skipRun struct {
	stats    uarch.Stats
	output   string
	exitCode int32
	skipped  int64
}

// runSkip runs im to completion on the machine.
func runSkip(t *testing.T, m testMachine, cfg uarch.Config, im *program.Image, noskip bool) skipRun {
	t.Helper()
	opts := engine.Options{MaxCycles: 200_000_000, NoIdleSkip: noskip}
	core := m.New(cfg, im, opts)
	res, err := core.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return skipRun{res.Stats, res.Output, res.ExitCode, core.SkipStats().SkippedCycles}
}

func requireSame(t *testing.T, name string, skip, plain skipRun) {
	t.Helper()
	if !reflect.DeepEqual(skip.stats, plain.stats) {
		t.Errorf("%s: stats differ with idle skipping:\nskip:  %+v\nplain: %+v", name, skip.stats, plain.stats)
	}
	if skip.output != plain.output || skip.exitCode != plain.exitCode {
		t.Errorf("%s: observable output differs with idle skipping", name)
	}
	if skip.skipped == 0 {
		t.Errorf("%s: no cycles were skipped; the comparison exercises nothing", name)
	}
}

// TestIdleSkipBitIdentical is the core acceptance test of the
// event-driven fast path: on memory-bound configurations where most
// cycles are skipped in bulk, every Stats counter, the console output,
// and the exit code must be bit-identical to strict cycle-by-cycle
// stepping — on every registry machine, across workloads chosen so that
// skipped windows end on every kind of wake-up event:
//
//   - micro-fib and micro-sieve retire store-set violations
//     (MemDepViolations > 0), so memory-dependence recovery fires with
//     skip windows on both sides of the violating load;
//   - micro-branch mispredicts constantly, so skips land exactly on
//     fetch redirects (the recovery-apply cycle vetoes skipping, and
//     the horizon stops at the redirect);
//   - micro-pointer is a pure dependent-miss chain, the best case for
//     long skips (>95% of cycles).
func TestIdleSkipBitIdentical(t *testing.T) {
	cases := []struct {
		w             workloads.Workload
		wantViolation bool
		wantMispred   bool
	}{
		{workloads.MicroFib, true, true},
		{workloads.MicroSieve, false, true}, // violations on STRAIGHT only
		{workloads.MicroPointer, false, false},
		{workloads.MicroBranch, false, true},
	}
	for _, tc := range cases {
		mod := buildIR(t, tc.w, 2)
		for _, m := range testMachines(t) {
			t.Run(m.Name+"/"+string(tc.w), func(t *testing.T) {
				im := m.build(t, mod, m.memBound)
				skip := runSkip(t, m, m.memBound, im, false)
				plain := runSkip(t, m, m.memBound, im, true)
				requireSame(t, string(tc.w), skip, plain)
				// Only STRAIGHT code retires store-set violations here.
				if m.ISA == cores.ISAStraight && tc.wantViolation && skip.stats.MemDepViolations == 0 {
					t.Error("expected memory-dependence violations inside the skipped run")
				}
				if tc.wantMispred && skip.stats.Mispredicts == 0 {
					t.Error("expected mispredict redirects inside the skipped run")
				}
			})
		}
	}
}

// TestIdleSkipErrorIdentical pins run-loop clamping: the skip limit is
// clamped to both the cycle budget and the deadlock-detector window, so
// even the error path is bit-identical. micro-stream on the memory-bound
// model overwhelms the two miss registers faster than they drain; the
// resulting miss backlog eventually parks fetch beyond the 500k-cycle
// progress window and the deadlock detector fires — at the exact same
// cycle, with the exact same message, in both stepping modes.
func TestIdleSkipErrorIdentical(t *testing.T) {
	mod := buildIR(t, workloads.MicroStream, 2)
	im := buildSTRAIGHT(t, mod, straightbe.Options{MaxDistance: 31, RedundancyElim: true})
	cfg := uarch.Straight4WayMemBound()
	run := func(noskip bool) string {
		opts := engine.Options{MaxCycles: 200_000_000, NoIdleSkip: noskip}
		_, err := cores.ForISA(cores.ISAStraight).New(cfg, im, opts).Run(opts)
		if err == nil {
			t.Fatal("micro-stream on the memory-bound model should trip the deadlock detector")
		}
		return err.Error()
	}
	skipErr, plainErr := run(false), run(true)
	if skipErr != plainErr {
		t.Errorf("error differs with idle skipping:\nskip:  %s\nplain: %s", skipErr, plainErr)
	}
}

// TestResetEquivalence is the batch-reuse acceptance test referenced by
// the Reset docs, run for every policy: a core recycled with Reset is
// observably identical to a freshly constructed one, including when
// different programs (fib → sieve → the pointer-chasing membound
// microkernel → fib again) are multiplexed through one core. The
// memory-bound model keeps the idle-skip machinery engaged across the
// reuse, so the horizon and signature state are proven to reset too.
func TestResetEquivalence(t *testing.T) {
	fibMod := buildIR(t, workloads.MicroFib, 2)
	sieveMod := buildIR(t, workloads.MicroSieve, 2)
	ptrMod := buildIR(t, workloads.MicroPointer, 2)

	for _, e := range testMachines(t) {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			fib := e.build(t, fibMod, e.memBound)
			sieve := e.build(t, sieveMod, e.memBound)
			ptr := e.build(t, ptrMod, e.memBound)
			opts := engine.Options{MaxCycles: 200_000_000}

			fresh := func(im *program.Image) skipRun {
				core := e.New(e.memBound, im, opts)
				res, err := core.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				return skipRun{res.Stats, res.Output, res.ExitCode, core.SkipStats().SkippedCycles}
			}
			freshFib := fresh(fib)
			freshSieve := fresh(sieve)
			freshPtr := fresh(ptr)
			if freshPtr.skipped == 0 {
				t.Error("membound pointer chase skipped nothing; the multiplex exercises no skip state")
			}

			core := e.New(e.memBound, fib, opts)
			if _, err := core.Run(opts); err != nil {
				t.Fatal(err)
			}
			// Rerun, multiplex the other programs through, come back.
			plan := []struct {
				img  *program.Image
				want skipRun
			}{{fib, freshFib}, {sieve, freshSieve}, {ptr, freshPtr}, {fib, freshFib}}
			for i, step := range plan {
				core.Reset(step.img)
				res, err := core.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				got := skipRun{res.Stats, res.Output, res.ExitCode, core.SkipStats().SkippedCycles}
				if !reflect.DeepEqual(got, step.want) {
					t.Errorf("reuse %d: reset core differs from fresh core:\nreset: %+v\nfresh: %+v", i, got, step.want)
				}
			}
		})
	}
}
