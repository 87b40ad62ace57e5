package sampling_test

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"straight/internal/bench"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/perf"
	"straight/internal/resultstore"
	"straight/internal/sampling"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// densePlan is the test plan for the small matrix workloads: short
// intervals with 75% of each interval measured, so the sampled estimate
// is tight enough to compare against the full run within 2%.
func densePlan() sampling.Plan {
	return sampling.Plan{Interval: 1024, Warmup: 256, Window: 1024}
}

// matrixCase is one workload row of the accuracy matrix, crossed with
// every kernel of the PR 9 differential matrix. The workloads run at
// larger iteration counts than the differential tests and each carries
// its own interval plan: the detailed-warmup depth is the knob that
// bounds the restart bias (DESIGN.md §16), and the depth a workload
// needs is an empirical property of how slowly its branch-predictor
// equilibrium re-forms after a restore. The depths below are the
// measured knees — halving any of them pushes at least one 4-wide cell
// past the 2% bound.
type matrixCase struct {
	w     workloads.Workload
	iters int
	plan  sampling.Plan
}

func matrixCases() []matrixCase {
	return []matrixCase{
		{workloads.MicroFib, 8, sampling.Plan{Interval: 4096, Warmup: 32768, Window: 4096}},
		{workloads.MicroBranch, 10, sampling.Plan{Interval: 8192, Warmup: 65536, Window: 8192}},
		{workloads.Dhrystone, 100, sampling.Plan{Interval: 8192, Warmup: 163840, Window: 8192}},
	}
}

func matrixKernels(t *testing.T) []perf.Kernel {
	t.Helper()
	var ks []perf.Kernel
	for _, name := range []string{
		"straight-2way", "straight-4way",
		"ss-2way", "ss-4way",
		"cg-2way", "cg-4way",
	} {
		k, err := perf.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

func buildTarget(t *testing.T, k perf.Kernel, c matrixCase) *sampling.Target {
	t.Helper()
	im, err := perf.BuildImage(k, c.w, c.iters)
	if err != nil {
		t.Fatalf("%s/%s: build: %v", k.Name, c.w, err)
	}
	tgt, err := sampling.NewTarget(string(k.Kind), k.Cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestSampledAccuracyMatrix cross-validates the sampled estimator
// against a full detailed run for every workload × policy × width cell
// of the differential matrix: the sampled IPC must land within the
// documented 2% bound of the true IPC, and the sampled instruction
// count must be exact (the fast-forward executes every instruction).
func TestSampledAccuracyMatrix(t *testing.T) {
	const bound = 0.02
	for _, c := range matrixCases() {
		for _, k := range matrixKernels(t) {
			c, k := c, k
			t.Run(string(c.w)+"/"+k.Name, func(t *testing.T) {
				im, err := perf.BuildImage(k, c.w, c.iters)
				if err != nil {
					t.Fatal(err)
				}
				full, err := perf.Run(k, im)
				if err != nil {
					t.Fatal(err)
				}
				fullIPC := float64(full.Stats.Retired) / float64(full.Stats.Cycles)

				tgt, err := sampling.NewTarget(string(k.Kind), k.Cfg, im)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sampling.Run(tgt, c.plan, sampling.Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if rep.TotalInsts != full.Stats.Retired {
					t.Errorf("sampled TotalInsts = %d, full run retired %d",
						rep.TotalInsts, full.Stats.Retired)
				}
				relErr := math.Abs(rep.IPC-fullIPC) / fullIPC
				t.Logf("full IPC %.4f, sampled IPC %.4f ±%.2f%%, err %.3f%%, %d windows, coverage %.1f%%",
					fullIPC, rep.IPC, 100*rep.CPI.RelCI95, 100*relErr, len(rep.Windows), 100*rep.Coverage)
				if relErr > bound {
					t.Errorf("sampled IPC %.4f vs full %.4f: relative error %.3f%% exceeds %.0f%% bound",
						rep.IPC, fullIPC, 100*relErr, 100*bound)
				}
			})
		}
	}
}

// TestSampledDeterminism: the same target and plan must produce a
// byte-identical report fingerprint at any worker count and whether the
// windows are computed cold or served from the store.
func TestSampledDeterminism(t *testing.T) {
	k, err := perf.KernelByName("straight-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	plan := densePlan()

	rep1, err := sampling.Run(tgt, plan, sampling.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := sampling.Run(tgt, plan, sampling.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1.Fingerprint(), rep4.Fingerprint()) {
		t.Error("fingerprints differ across worker counts")
	}

	store, err := resultstore.Open(filepath.Join(t.TempDir(), "windows.store"), resultstore.Options{Salt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cold, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Timing.StoreHits != 0 {
		t.Errorf("cold run reported %d store hits", cold.Timing.StoreHits)
	}
	warm, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timing.StoreHits != len(warm.Windows) {
		t.Errorf("warm run hit %d/%d windows", warm.Timing.StoreHits, len(warm.Windows))
	}
	if !bytes.Equal(rep1.Fingerprint(), cold.Fingerprint()) ||
		!bytes.Equal(cold.Fingerprint(), warm.Fingerprint()) {
		t.Error("fingerprints differ between cold, store-cold, and store-warm runs")
	}
	// The cold run also cached the checkpoint sequence, so the warm run
	// must have taken the fully-cached path: no fast-forward at all.
	if warm.Timing.FFSeconds != 0 {
		t.Errorf("store-warm run spent %.3fs fast-forwarding; cached checkpoint sequence should skip it", warm.Timing.FFSeconds)
	}
	// An output sink disables the fully-cached path — console output
	// only exists if the program executes — but the windows still hit.
	var out bytes.Buffer
	warmOut, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, Store: store, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	if warmOut.Timing.FFSeconds == 0 {
		t.Error("store-warm run with an output sink skipped the fast-forward")
	}
	if warmOut.Timing.StoreHits != len(warmOut.Windows) {
		t.Errorf("store-warm run with output hit %d/%d windows", warmOut.Timing.StoreHits, len(warmOut.Windows))
	}
	if !bytes.Equal(warm.Fingerprint(), warmOut.Fingerprint()) {
		t.Error("fingerprint differs between fully-cached and output-sink store-warm runs")
	}
}

// TestSampledWorkerInvariance: windows stream to the workers while the
// fast-forward runs, so completion order varies with the worker count;
// the report must not. Covers a dense plan on both ISAs and a
// DefaultPlan run with several windows in flight at once.
func TestSampledWorkerInvariance(t *testing.T) {
	cases := []struct {
		kernel string
		c      matrixCase
	}{
		{"straight-2way", matrixCase{w: workloads.MicroFib, iters: 1, plan: densePlan()}},
		{"ss-2way", matrixCase{w: workloads.MicroFib, iters: 1, plan: densePlan()}},
		// 80 iterations retire ~3.1M instructions: 4 DefaultPlan windows.
		{"straight-4way", matrixCase{w: workloads.DhrystoneLong, iters: 80, plan: sampling.DefaultPlan()}},
	}
	for _, tc := range cases {
		if testing.Short() && tc.c.w == workloads.DhrystoneLong {
			continue
		}
		k, err := perf.KernelByName(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		tgt := buildTarget(t, k, tc.c)
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			rep, err := sampling.Run(tgt, tc.c.plan, sampling.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s/%s workers=%d: %v", tc.c.w, tc.kernel, workers, err)
			}
			if len(rep.Windows) < 3 {
				t.Fatalf("%s/%s: %d windows, want at least 3", tc.c.w, tc.kernel, len(rep.Windows))
			}
			if want == nil {
				want = rep.Fingerprint()
			} else if !bytes.Equal(rep.Fingerprint(), want) {
				t.Errorf("%s/%s: fingerprint at workers=%d differs from workers=1", tc.c.w, tc.kernel, workers)
			}
		}
	}
}

// TestSampledNoIdleSkipInvariance: idle-skipping is cycle-exact
// (DESIGN.md §12) and deliberately excluded from the window cache key,
// so both stepping modes must produce identical report fingerprints.
func TestSampledNoIdleSkipInvariance(t *testing.T) {
	k, err := perf.KernelByName("ss-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	plan := densePlan()
	skip, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, NoIdleSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(skip.Fingerprint(), strict.Fingerprint()) {
		t.Error("idle-skipped and strict-stepped sampled reports differ")
	}
}

// TestSampledOffset: a phase-shifted plan still reconstructs a sane
// estimate (windows start at Offset + k·Interval).
func TestSampledOffset(t *testing.T) {
	k, err := perf.KernelByName("straight-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	plan := densePlan()
	plan.Offset = 512
	rep, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) == 0 {
		t.Fatal("offset plan produced no windows")
	}
	for _, w := range rep.Windows {
		if (w.Start-plan.Offset)%plan.Interval != 0 {
			t.Errorf("window starts at %d, not on the offset grid", w.Start)
		}
	}
	if rep.IPC <= 0 {
		t.Errorf("offset plan IPC = %v", rep.IPC)
	}
}

// TestPlanValidate pins the degenerate-plan rejections.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		p    sampling.Plan
		ok   bool
	}{
		{"default", sampling.DefaultPlan(), true},
		{"zero-window", sampling.Plan{Interval: 100, Warmup: 10}, false},
		{"zero-interval", sampling.Plan{Window: 10}, false},
		{"warmup-overlap", sampling.Plan{Interval: 100, Warmup: 60, Window: 60}, true},
		{"full-tile", sampling.Plan{Interval: 100, Warmup: 40, Window: 100}, true},
		{"double-count", sampling.Plan{Interval: 100, Warmup: 0, Window: 101}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSampledUnknownPolicy pins the NewTarget error path.
func TestSampledUnknownPolicy(t *testing.T) {
	if _, err := sampling.NewTarget("vliw", perf.Kernels()[0].Cfg, nil); err == nil {
		t.Fatal("NewTarget accepted an unknown policy")
	}
}

// TestLongWorkloadFullRun pins the long-running workload tier: the
// DhrystoneLong kernel must retire 10–50M instructions at the
// bench-standard iteration count and exit cleanly on both ISAs. Gated
// behind -short only for the slower RISC-V build.
func TestLongWorkloadFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long workload full run skipped in -short mode")
	}
	const iters = 300
	check := func(name string, count uint64, exited bool, code int32) {
		if !exited || code != 0 {
			t.Fatalf("%s: exited=%v code=%d, want clean exit", name, exited, code)
		}
		if count < 10_000_000 || count > 50_000_000 {
			t.Errorf("%s: retired %d instructions, want 10M–50M", name, count)
		}
		t.Logf("%s: retired %d instructions", name, count)
	}

	sim, err := bench.BuildSTRAIGHT(workloads.DhrystoneLong, iters, 127, bench.ModeREP)
	if err != nil {
		t.Fatal(err)
	}
	sm := straightemu.New(sim)
	if err := sm.RunUntil(100_000_000); err != nil {
		t.Fatal(err)
	}
	sx, scode := sm.Exited()
	check("straight", sm.InstCount(), sx, scode)

	rim, err := bench.BuildRISCV(workloads.DhrystoneLong, iters)
	if err != nil {
		t.Fatal(err)
	}
	rm := riscvemu.New(rim)
	if err := rm.RunUntil(100_000_000); err != nil {
		t.Fatal(err)
	}
	rx, rcode := rm.Exited()
	check("riscv", rm.InstCount(), rx, rcode)
}

// BenchmarkFastForward times the fast-forward layer of a sampled run on
// each ISA: dhrystone-long @300 through the functional emulator with
// DefaultPlan's checkpoints and warming bursts, and no windows. It
// reports simulated instructions per second.
func BenchmarkFastForward(b *testing.B) {
	for _, c := range []struct{ isa, kernel string }{{"straight", "straight-4way"}, {"riscv", "ss-4way"}} {
		k, err := perf.KernelByName(c.kernel)
		if err != nil {
			b.Fatal(err)
		}
		im, err := perf.BuildImage(k, workloads.DhrystoneLong, 300)
		if err != nil {
			b.Fatal(err)
		}
		tgt, err := sampling.NewTarget(string(k.Kind), k.Cfg, im)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.isa, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				n, err := sampling.FastForward(tgt, sampling.DefaultPlan())
				if err != nil {
					b.Fatal(err)
				}
				insts += n
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}

// BenchmarkWindowRestart times the set-up of one sampled window on each
// ISA: Restart of a reused core from a dhrystone-long checkpoint taken
// one DefaultPlan interval in, then AdoptWarm of a warm-state snapshot.
// The window's warmup and measured simulation are not included.
func BenchmarkWindowRestart(b *testing.B) {
	at := sampling.DefaultPlan().Interval
	for _, name := range []string{"straight-4way", "ss-4way"} {
		k, err := perf.KernelByName(name)
		if err != nil {
			b.Fatal(err)
		}
		im, err := perf.BuildImage(k, workloads.DhrystoneLong, 300)
		if err != nil {
			b.Fatal(err)
		}
		m, err := cores.Lookup(string(k.Kind))
		if err != nil {
			b.Fatal(err)
		}
		var ck engine.ArchState
		if m.ISA == cores.ISAStraight {
			e := straightemu.New(im)
			err, ck = e.RunUntil(at), e.Checkpoint()
		} else {
			e := riscvemu.New(im)
			err, ck = e.RunUntil(at), e.Checkpoint()
		}
		if err != nil {
			b.Fatal(err)
		}
		if ck.Count() != at {
			b.Fatalf("%s: checkpoint at %d, want %d", name, ck.Count(), at)
		}
		core := m.New(k.Cfg, im, engine.Options{})
		warm := uarch.NewWarmState(k.Cfg)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := core.Restart(im, ck); err != nil {
					b.Fatal(err)
				}
				core.AdoptWarm(warm)
			}
		})
	}
}

// TestNewTargetRejectsBadCacheGeometry: a config whose cache cannot be
// built fails at NewTarget, naming the level, before any fast-forward.
func TestNewTargetRejectsBadCacheGeometry(t *testing.T) {
	cfg := uarch.SS2Way()
	cfg.L2.LineBytes = 0
	const want = "sampling: uarch: L2 cache LineBytes = 0, want 1..65536"
	if _, err := sampling.NewTarget("ss", cfg, nil); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}
