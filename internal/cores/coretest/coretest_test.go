// Package coretest_test integration-tests the two cycle-level cores
// against the full toolchain: every workload is compiled, simulated with
// per-instruction cross-validation against the functional emulators, and
// the statistics are sanity-checked against the paper's qualitative
// expectations.
package coretest_test

import (
	"strings"
	"testing"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/program"
	"straight/internal/rasm"
	"straight/internal/sverify"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

func buildIR(t testing.TB, w workloads.Workload, iters int) *ir.Module {
	t.Helper()
	src, err := workloads.Source(w, iters)
	if err != nil {
		t.Fatal(err)
	}
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := irgen.Build(file)
	if err != nil {
		t.Fatal(err)
	}
	ir.OptimizeModule(mod)
	return mod
}

// BuildRISCV compiles a module for the SS core.
func buildRISCV(t testing.TB, mod *ir.Module) *program.Image {
	t.Helper()
	asm, err := riscvbe.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	im, err := rasm.Assemble(asm)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// BuildSTRAIGHT compiles a module for the STRAIGHT core.
func buildSTRAIGHT(t testing.TB, mod *ir.Module, opts straightbe.Options) *program.Image {
	t.Helper()
	_, im, err := straightbe.CompileImage(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func runSS(t testing.TB, cfg uarch.Config, im *program.Image) *engine.Result {
	t.Helper()
	opts := engine.Options{CrossValidate: true, MaxCycles: 200_000_000}
	core := sscore.New(cfg, im, opts)
	res, err := core.Run(opts)
	if err != nil {
		t.Fatalf("sscore %s: %v", cfg.Name, err)
	}
	if err := res.Stats.Check(cfg); err != nil {
		t.Fatalf("sscore %s: %v", cfg.Name, err)
	}
	return res
}

func runStraight(t testing.TB, cfg uarch.Config, im *program.Image) *engine.Result {
	t.Helper()
	opts := engine.Options{CrossValidate: true, MaxCycles: 200_000_000}
	core := straightcore.New(cfg, im, opts)
	res, err := core.Run(opts)
	if err != nil {
		t.Fatalf("straightcore %s: %v", cfg.Name, err)
	}
	if err := res.Stats.Check(cfg); err != nil {
		t.Fatalf("straightcore %s: %v", cfg.Name, err)
	}
	return res
}

// TestSSCoreCrossValidated runs every workload on both SS configurations
// with per-retire cross-validation against the RV32IM emulator.
func TestSSCoreCrossValidated(t *testing.T) {
	iters := map[workloads.Workload]int{
		workloads.Dhrystone: 3, workloads.CoreMark: 1,
		workloads.MicroFib: 1, workloads.MicroSieve: 1,
		workloads.MicroPointer: 1, workloads.MicroBranch: 1,
	}
	// micro-stream is excluded here: its 4 MiB footprint takes tens of
	// millions of cycles, which belongs in the benches, not the tests
	// (its correctness is covered by the emulator equivalence suite).
	for _, w := range []workloads.Workload{
		workloads.Dhrystone, workloads.CoreMark, workloads.MicroFib,
		workloads.MicroSieve, workloads.MicroPointer, workloads.MicroBranch,
	} {
		w := w
		t.Run(string(w), func(t *testing.T) {
			mod := buildIR(t, w, iters[w])
			im := buildRISCV(t, mod)
			for _, cfg := range []uarch.Config{uarch.SS2Way(), uarch.SS4Way()} {
				res := runSS(t, cfg, im)
				if res.ExitCode != 0 {
					t.Errorf("%s: exit code %d (output %q)", cfg.Name, res.ExitCode, res.Output)
				}
				if res.Stats.IPC() <= 0.05 || res.Stats.IPC() > float64(cfg.IssueWidth) {
					t.Errorf("%s: implausible IPC %.3f\n%s", cfg.Name, res.Stats.IPC(), res.Stats.String())
				}
				if !strings.Contains(res.Output, "\n") {
					t.Errorf("%s: no output produced", cfg.Name)
				}
			}
		})
	}
}

// TestStraightCoreCrossValidated runs every workload (RE+ code) on both
// STRAIGHT configurations with cross-validation.
func TestStraightCoreCrossValidated(t *testing.T) {
	iters := map[workloads.Workload]int{
		workloads.Dhrystone: 3, workloads.CoreMark: 1,
		workloads.MicroFib: 1, workloads.MicroSieve: 1,
		workloads.MicroPointer: 1, workloads.MicroBranch: 1,
	}
	for _, w := range []workloads.Workload{
		workloads.Dhrystone, workloads.CoreMark, workloads.MicroFib,
		workloads.MicroSieve, workloads.MicroPointer, workloads.MicroBranch,
	} {
		w := w
		t.Run(string(w), func(t *testing.T) {
			mod := buildIR(t, w, iters[w])
			for _, cfg := range []uarch.Config{uarch.Straight2Way(), uarch.Straight4Way()} {
				im := buildSTRAIGHT(t, mod, straightbe.Options{
					MaxDistance: cfg.MaxDistance, RedundancyElim: true,
				})
				res := runStraight(t, cfg, im)
				if res.ExitCode != 0 {
					t.Errorf("%s: exit code %d (output %q)", cfg.Name, res.ExitCode, res.Output)
				}
				if res.Stats.IPC() <= 0.05 || res.Stats.IPC() > float64(cfg.IssueWidth) {
					t.Errorf("%s: implausible IPC %.3f\n%s", cfg.Name, res.Stats.IPC(), res.Stats.String())
				}
			}
		})
	}
}

// TestStrictEmulationMatchesStaticVerdict cross-validates the static
// verifier dynamically: every compiled workload that sverify proves
// hazard-consistent must also run to completion under the emulator's
// strict mode, which faults on any read beyond the distance bound or of
// a never-written slot.
func TestStrictEmulationMatchesStaticVerdict(t *testing.T) {
	iters := map[workloads.Workload]int{
		workloads.Dhrystone: 3, workloads.CoreMark: 1,
		workloads.MicroFib: 1, workloads.MicroPointer: 1,
	}
	for _, w := range []workloads.Workload{
		workloads.Dhrystone, workloads.CoreMark,
		workloads.MicroFib, workloads.MicroPointer,
	} {
		w := w
		t.Run(string(w), func(t *testing.T) {
			mod := buildIR(t, w, iters[w])
			for _, opts := range []straightbe.Options{
				{MaxDistance: 31, RedundancyElim: true},
				{MaxDistance: 1023},
			} {
				im := buildSTRAIGHT(t, mod, opts)
				if err := sverify.Check(im, sverify.Config{MaxDistance: opts.MaxDistance}); err != nil {
					t.Fatalf("static verdict d=%d: %v", opts.MaxDistance, err)
				}
				m := straightemu.New(im)
				m.SetStrict(opts.MaxDistance)
				if _, err := m.Run(200_000_000); err != nil {
					t.Fatalf("strict emulation d=%d re=%v faulted where the static verifier passed: %v",
						opts.MaxDistance, opts.RedundancyElim, err)
				}
				if ok, code := m.Exited(); !ok || code != 0 {
					t.Fatalf("d=%d: exited=%v code=%d", opts.MaxDistance, ok, code)
				}
			}
		})
	}
}

// TestOutputsMatchAcrossCores checks both cycle cores print exactly what
// the functional oracle prints.
func TestOutputsMatchAcrossCores(t *testing.T) {
	mod := buildIR(t, workloads.Dhrystone, 2)
	ssIm := buildRISCV(t, mod)
	stIm := buildSTRAIGHT(t, mod, straightbe.Options{MaxDistance: 31, RedundancyElim: true})
	ssRes := runSS(t, uarch.SS2Way(), ssIm)
	stRes := runStraight(t, uarch.Straight2Way(), stIm)
	if ssRes.Output != stRes.Output {
		t.Errorf("outputs differ: ss=%q straight=%q", ssRes.Output, stRes.Output)
	}
	if !strings.HasPrefix(ssRes.Output, "1 ") {
		t.Errorf("dhrystone validation failed on cores: %q", ssRes.Output)
	}
}

// TestRecoveryBehaviourDiffers verifies the paper's central mechanism
// claim: on branchy code the SS core pays ROB-walk stalls while STRAIGHT
// does not walk at all.
func TestRecoveryBehaviourDiffers(t *testing.T) {
	mod := buildIR(t, workloads.MicroBranch, 2)
	ssIm := buildRISCV(t, mod)
	stIm := buildSTRAIGHT(t, mod, straightbe.Options{MaxDistance: 31, RedundancyElim: true})

	ssRes := runSS(t, uarch.SS4Way(), ssIm)
	stRes := runStraight(t, uarch.Straight4Way(), stIm)

	if ssRes.Stats.Mispredicts == 0 || stRes.Stats.Mispredicts == 0 {
		t.Fatalf("micro-branch should mispredict: ss=%d straight=%d",
			ssRes.Stats.Mispredicts, stRes.Stats.Mispredicts)
	}
	if ssRes.Stats.ROBWalkSteps == 0 {
		t.Error("SS recovery must walk the ROB")
	}
	if stRes.Stats.ROBWalkSteps != 0 {
		t.Errorf("STRAIGHT must not walk the ROB (got %d steps)", stRes.Stats.ROBWalkSteps)
	}
	if stRes.Stats.RenameReads != 0 || stRes.Stats.RenameWrites != 0 {
		t.Error("STRAIGHT must not access an RMT")
	}
	if ssRes.Stats.RenameReads == 0 {
		t.Error("SS must access the RMT")
	}
	if stRes.Stats.RPAdditions == 0 {
		t.Error("STRAIGHT operand determination should count RP additions")
	}
	// Per-misprediction recovery stall must be higher on SS.
	ssStall := float64(ssRes.Stats.RecoveryStall) / float64(ssRes.Stats.Mispredicts+ssRes.Stats.TargetMispredict)
	stStall := float64(stRes.Stats.RecoveryStall) / float64(stRes.Stats.Mispredicts+stRes.Stats.TargetMispredict)
	t.Logf("recovery stall per event: ss=%.2f straight=%.2f", ssStall, stStall)
	if ssStall <= stStall {
		t.Errorf("SS recovery stall (%.2f) should exceed STRAIGHT's (%.2f)", ssStall, stStall)
	}
}

// TestZeroPenaltyIdealization verifies the Fig 13 knob: idealized SS must
// be at least as fast as the real SS on branchy code.
func TestZeroPenaltyIdealization(t *testing.T) {
	mod := buildIR(t, workloads.MicroBranch, 2)
	im := buildRISCV(t, mod)
	real := runSS(t, uarch.SS2Way(), im)
	ideal := uarch.SS2Way()
	ideal.ZeroMispredictPenalty = true
	idealRes := runSS(t, ideal, im)
	t.Logf("cycles: real=%d ideal=%d", real.Stats.Cycles, idealRes.Stats.Cycles)
	if idealRes.Stats.Cycles >= real.Stats.Cycles {
		t.Errorf("zero-penalty SS (%d cycles) should beat real SS (%d cycles)",
			idealRes.Stats.Cycles, real.Stats.Cycles)
	}
	if idealRes.Output != real.Output {
		t.Errorf("outputs differ under idealization")
	}
}

// TestTAGEBeatsGshare verifies the Fig 14 ingredient: TAGE should not
// mispredict more than gshare on the branchy microkernel.
func TestTAGEBeatsGshare(t *testing.T) {
	mod := buildIR(t, workloads.MicroBranch, 2)
	im := buildRISCV(t, mod)
	gs := runSS(t, uarch.SS2Way(), im)
	tcfg := uarch.SS2Way()
	tcfg.Predictor = uarch.PredTAGE
	tg := runSS(t, tcfg, im)
	t.Logf("MPKI: gshare=%.2f tage=%.2f", gs.Stats.MPKI(), tg.Stats.MPKI())
	if tg.Stats.MPKI() > gs.Stats.MPKI()*1.1 {
		t.Errorf("TAGE MPKI %.2f should not exceed gshare %.2f", tg.Stats.MPKI(), gs.Stats.MPKI())
	}
}
