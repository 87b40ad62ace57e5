package workloads

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/rasm"
	"straight/internal/sasm"

	straightisa "straight/internal/isa/straight"
)

func buildModule(t *testing.T, w Workload, iters int) *ir.Module {
	t.Helper()
	src, err := Source(w, iters)
	if err != nil {
		t.Fatal(err)
	}
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", w, err)
	}
	mod, err := irgen.Build(file)
	if err != nil {
		t.Fatalf("%s: irgen: %v", w, err)
	}
	ir.OptimizeModule(mod)
	return mod
}

func runOracle(t *testing.T, mod *ir.Module) string {
	t.Helper()
	var out bytes.Buffer
	in := ir.NewInterp(mod, &out)
	in.SetMaxSteps(500_000_000)
	if _, err := in.Run("main"); err != nil {
		t.Fatalf("oracle: %v (output %q)", err, out.String())
	}
	return out.String()
}

func runOnStraight(t *testing.T, mod *ir.Module, opts straightbe.Options) (string, *straightemu.Machine) {
	t.Helper()
	asm, err := straightbe.Compile(mod, opts)
	if err != nil {
		t.Fatalf("straightbe: %v", err)
	}
	im, err := sasm.Assemble(asm)
	if err != nil {
		t.Fatalf("sasm: %v", err)
	}
	m := straightemu.New(im)
	var out bytes.Buffer
	m.SetOutput(&out)
	if _, err := m.Run(2_000_000_000); err != nil {
		t.Fatalf("straight run: %v (output %q)", err, out.String())
	}
	return out.String(), m
}

func runOnRiscv(t *testing.T, mod *ir.Module) (string, *riscvemu.Machine) {
	t.Helper()
	asm, err := riscvbe.Compile(mod)
	if err != nil {
		t.Fatalf("riscvbe: %v", err)
	}
	im, err := rasm.Assemble(asm)
	if err != nil {
		t.Fatalf("rasm: %v", err)
	}
	m := riscvemu.New(im)
	var out bytes.Buffer
	m.SetOutput(&out)
	if _, err := m.Run(2_000_000_000); err != nil {
		t.Fatalf("riscv run: %v (output %q)", err, out.String())
	}
	return out.String(), m
}

// TestAllWorkloadsAgreeAcrossEngines is the compiler's master equivalence
// test: every workload must produce identical output on the IR
// interpreter, the RISC-V toolchain, and the STRAIGHT toolchain in RAW
// and RE+ modes at both the ISA-maximum and the model distance bound.
func TestAllWorkloadsAgreeAcrossEngines(t *testing.T) {
	iters := map[Workload]int{
		Dhrystone: 5, CoreMark: 1,
		MicroFib: 2, MicroSieve: 1, MicroPointer: 1, MicroBranch: 1,
		MicroStream: 1,
	}
	for _, w := range append(append([]Workload{}, All...), Micro...) {
		w := w
		t.Run(string(w), func(t *testing.T) {
			mod := buildModule(t, w, iters[w])
			want := runOracle(t, mod)
			if strings.TrimSpace(want) == "" {
				t.Fatalf("oracle produced no output")
			}
			if got, _ := runOnRiscv(t, mod); got != want {
				t.Errorf("riscv: %q want %q", got, want)
			}
			for _, opts := range []straightbe.Options{
				{MaxDistance: 1023},
				{MaxDistance: 1023, RedundancyElim: true},
				{MaxDistance: 31},
				{MaxDistance: 31, RedundancyElim: true},
			} {
				got, _ := runOnStraight(t, mod, opts)
				if got != want {
					t.Errorf("straight %+v: %q want %q", opts, got, want)
				}
			}
		})
	}
}

// TestSourceMatchesSprintf pins the pre-rendered templates to the
// formats they came from: every workload's source, at every iteration
// count tried, is the text fmt.Sprintf renders (CoreMark's %% escapes
// included).
func TestSourceMatchesSprintf(t *testing.T) {
	formats := []struct {
		w      Workload
		format string
		scale  int
	}{
		{Dhrystone, dhrystoneTemplate, 1},
		{DhrystoneLong, dhrystoneTemplate, LongScale},
		{CoreMark, coremarkTemplate, 1},
		{MicroFib, microFib, 1},
		{MicroSieve, microSieve, 1},
		{MicroPointer, microPointer, 1},
		{MicroBranch, microBranch, 1},
		{MicroStream, microStream, 1},
	}
	if want := len(All) + len(Micro) + 1; len(formats) != want {
		t.Fatalf("table covers %d workloads, want %d", len(formats), want)
	}
	for _, f := range formats {
		for _, n := range []int{-7, 0, 1, 2, 9, 10, 99, 100, 300, 12345, 1 << 30} {
			got, err := Source(f.w, n)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf(f.format, n*f.scale); got != want {
				t.Fatalf("Source(%s, %d) differs from fmt.Sprintf", f.w, n)
			}
		}
	}
	if _, err := Source("no-such-workload", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSourcePartsMatchSource checks that the parts content addresses
// hash are Source's text, for every workload at several counts, and
// that an unknown workload fails with Source's exact error.
func TestSourcePartsMatchSource(t *testing.T) {
	for _, w := range append(append([]Workload{DhrystoneLong}, All...), Micro...) {
		for _, n := range []int{-3, 0, 1, 7, 100, 300, 1 << 20} {
			want, err := Source(w, n)
			if err != nil {
				t.Fatal(err)
			}
			prefix, count, suffix, err := SourceParts(w, n)
			if err != nil {
				t.Fatal(err)
			}
			if got := prefix + strconv.Itoa(count) + suffix; got != want {
				t.Fatalf("SourceParts(%s, %d) = %d B around %d, want Source's %d B", w, n, len(got), count, len(want))
			}
		}
	}
	_, srcErr := Source("no-such-workload", 1)
	_, _, _, err := SourceParts("no-such-workload", 1)
	if srcErr == nil || err == nil || err.Error() != srcErr.Error() {
		t.Fatalf("unknown workload: SourceParts error %v, Source error %v", err, srcErr)
	}
}

// TestDhrystoneValidation checks the workload's own invariant checks pass
// (first printed field is 1).
func TestDhrystoneValidation(t *testing.T) {
	mod := buildModule(t, Dhrystone, 3)
	out := runOracle(t, mod)
	if !strings.HasPrefix(out, "1 ") {
		t.Errorf("dhrystone self-validation failed: %q", out)
	}
}

// TestCoreMarkCRCsAreIterationSensitive ensures the CRC chain actually
// depends on the iteration count (a frozen CRC would mean dead kernels).
func TestCoreMarkCRCsAreIterationSensitive(t *testing.T) {
	out1 := runOracle(t, buildModule(t, CoreMark, 1))
	out2 := runOracle(t, buildModule(t, CoreMark, 2))
	if out1 == out2 {
		t.Errorf("coremark output identical for 1 and 2 iterations: %q", out1)
	}
}

// TestInstructionMixSkewsAsPaperDescribes: CoreMark RAW must carry far
// more RMOVs than Dhrystone RAW relative to total (CoreMark has more live
// values across merges — §VI-A).
func TestInstructionMixSkewsAsPaperDescribes(t *testing.T) {
	dmod := buildModule(t, Dhrystone, 3)
	cmod := buildModule(t, CoreMark, 1)
	_, dm := runOnStraight(t, dmod, straightbe.Options{MaxDistance: 1023})
	_, cm := runOnStraight(t, cmod, straightbe.Options{MaxDistance: 1023})
	dRMOV := float64(dm.Stats().Retired[rmovOp()]) / float64(dm.Stats().Total())
	cRMOV := float64(cm.Stats().Retired[rmovOp()]) / float64(cm.Stats().Total())
	t.Logf("RAW RMOV fraction: dhrystone=%.3f coremark=%.3f", dRMOV, cRMOV)
	if cRMOV <= 0.05 {
		t.Errorf("coremark RAW RMOV fraction suspiciously low: %.3f", cRMOV)
	}
}

func rmovOp() int { return int(straightisa.RMOV) }
