package sverify_test

import (
	"fmt"
	"strings"
	"testing"

	"straight/internal/backend/straightbe"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/program"
	"straight/internal/sasm"
	"straight/internal/sverify"
	"straight/internal/workloads"
)

// assemble builds an image from hand-written assembly without any
// verification pass, so negative tests can construct invalid programs.
func assemble(t *testing.T, src string) *program.Image {
	t.Helper()
	im, err := sasm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return im
}

func kinds(rep *sverify.Report) map[sverify.Kind]int {
	m := map[sverify.Kind]int{}
	for _, d := range rep.Diags {
		m[d.Kind]++
	}
	return m
}

func wantKind(t *testing.T, rep *sverify.Report, k sverify.Kind) sverify.Diagnostic {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Kind == k {
			return d
		}
	}
	t.Fatalf("no %v diagnostic; report:\n%s", k, rep)
	return sverify.Diagnostic{}
}

// TestVerifyCompiledWorkloads is the tentpole acceptance test: every
// image compiled from both workloads at all four difftest configurations
// must verify clean.
func TestVerifyCompiledWorkloads(t *testing.T) {
	configs := []straightbe.Options{
		{MaxDistance: 1023},
		{MaxDistance: 1023, RedundancyElim: true},
		{MaxDistance: 31},
		{MaxDistance: 31, RedundancyElim: true},
	}
	cases := []struct {
		w     workloads.Workload
		iters int
	}{
		{workloads.Dhrystone, 5},
		{workloads.CoreMark, 1},
	}
	for _, c := range cases {
		src, err := workloads.Source(c.w, c.iters)
		if err != nil {
			t.Fatalf("%s: %v", c.w, err)
		}
		file, err := minic.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", c.w, err)
		}
		for _, opts := range configs {
			opts := opts
			name := fmt.Sprintf("%s/d%d/re%v", c.w, opts.MaxDistance, opts.RedundancyElim)
			t.Run(name, func(t *testing.T) {
				mod, err := irgen.Build(file)
				if err != nil {
					t.Fatal(err)
				}
				ir.OptimizeModule(mod)
				_, im, err := straightbe.CompileImage(mod, opts)
				if err != nil {
					t.Fatal(err)
				}
				rep := sverify.Verify(im, sverify.Config{MaxDistance: opts.MaxDistance})
				if !rep.OK() {
					t.Fatalf("compiled image fails verification:\n%s", rep)
				}
				if rep.Funcs < 2 {
					t.Errorf("analyzed %d functions, want at least _start and main", rep.Funcs)
				}
				if rep.Insns == 0 {
					t.Error("analyzed 0 instructions")
				}
			})
		}
	}
}

// TestAcceptsHandWrittenProgram checks the verifier against a small
// valid program exercising the calling convention.
func TestAcceptsHandWrittenProgram(t *testing.T) {
	im := assemble(t, `
main:
    ADDi [0], 5
    JAL double
    SYS exit, [2]
double:
    ADD [2], [2]
    JR [2]
`)
	rep := sverify.Verify(im, sverify.Config{})
	if !rep.OK() {
		t.Fatalf("valid program rejected:\n%s", rep)
	}
	if rep.Funcs != 2 {
		t.Errorf("Funcs = %d, want 2", rep.Funcs)
	}
	if len(rep.Diags) != 0 {
		t.Errorf("unexpected diagnostics:\n%s", rep)
	}
}

// TestRejectJoinMismatch: the two paths into f_skip have executed a
// different number of instructions since function entry, so [3] names a
// different producer depending on the branch — the canonical
// distance-fixing violation (§IV-C2).
func TestRejectJoinMismatch(t *testing.T) {
	im := assemble(t, `
main:
    ADDi [0], 7
    JAL f
    SYS exit, [2]
f:
    BNZ [2], f_skip
    ADDi [0], 1
f_skip:
    RMOV [3]
    JR [4]
`)
	rep := sverify.Verify(im, sverify.Config{})
	if rep.OK() {
		t.Fatalf("join mismatch not detected:\n%s", rep)
	}
	d := wantKind(t, rep, sverify.JoinMismatch)
	if !d.HavePaths {
		t.Error("JoinMismatch diagnostic missing the two conflicting paths")
	}
	if d.Paths[0].Depth == d.Paths[1].Depth && d.Paths[0].PredPC == d.Paths[1].PredPC {
		t.Errorf("conflicting paths are identical: %+v", d.Paths)
	}
}

// TestRejectOverBound: a source distance beyond the configured bound
// (distance bounding, §IV-C3).
func TestRejectOverBound(t *testing.T) {
	var b strings.Builder
	b.WriteString("main:\n")
	for i := 0; i < 35; i++ {
		fmt.Fprintf(&b, "    ADDi [0], %d\n", i)
	}
	b.WriteString("    RMOV [33]\n    SYS exit, [0]\n")
	im := assemble(t, b.String())

	rep := sverify.Verify(im, sverify.Config{MaxDistance: 31})
	d := wantKind(t, rep, sverify.OverBound)
	if !strings.Contains(d.Msg, "33") || !strings.Contains(d.Msg, "31") {
		t.Errorf("message should name distance and bound: %q", d.Msg)
	}

	// The same image is fine under the ISA-maximum bound.
	if rep := sverify.Verify(im, sverify.Config{}); !rep.OK() {
		t.Errorf("image should verify at the default bound:\n%s", rep)
	}
}

// TestRejectReadBeforeEntry: an operand in the program entry function
// reaching past the first executed instruction reads an uninitialized
// slot.
func TestRejectReadBeforeEntry(t *testing.T) {
	im := assemble(t, `
main:
    ADD [1], [2]
    SYS exit, [0]
`)
	rep := sverify.Verify(im, sverify.Config{})
	wantKind(t, rep, sverify.ReadBeforeEntry)
}

// TestRejectUnbalancedSP: a return whose cumulative SPADD offset is not
// zero leaks or pops caller frame space.
func TestRejectUnbalancedSP(t *testing.T) {
	im := assemble(t, `
main:
    JAL f
    SYS exit, [2]
f:
    SPADD -16
    JR [2]
`)
	rep := sverify.Verify(im, sverify.Config{})
	d := wantKind(t, rep, sverify.UnbalancedSP)
	if !strings.Contains(d.Msg, "-16") {
		t.Errorf("message should carry the offset: %q", d.Msg)
	}
}

// TestRejectSPJoinMismatch: paths reaching a join with different SP
// offsets break frame addressing on one of them.
func TestRejectSPJoinMismatch(t *testing.T) {
	im := assemble(t, `
main:
    JAL f
    SYS exit, [2]
f:
    BNZ [1], f_a
    SPADD -8
f_a:
    JR [2]
`)
	rep := sverify.Verify(im, sverify.Config{})
	d := wantKind(t, rep, sverify.SPMismatch)
	if !d.HavePaths {
		t.Error("SPMismatch diagnostic missing the two conflicting paths")
	}
	if d.Paths[0].SP == d.Paths[1].SP {
		t.Errorf("paths should carry differing SP offsets: %+v", d.Paths)
	}
}

// TestRejectCrossCallRead: only the callee's fixed return sequence (JR
// at distance 1, return value at 2) is path-independent across a call;
// deeper reads depend on the callee's dynamic instruction count.
func TestRejectCrossCallRead(t *testing.T) {
	im := assemble(t, `
main:
    ADDi [0], 1
    ADDi [0], 2
    JAL f
    RMOV [5]
    SYS exit, [0]
f:
    ADDi [0], 3
    JR [2]
`)
	rep := sverify.Verify(im, sverify.Config{})
	wantKind(t, rep, sverify.CrossCall)

	// Reading the return value at distance 2 is the ABI and must pass.
	ok := assemble(t, `
main:
    JAL f
    SYS exit, [2]
f:
    ADDi [0], 3
    JR [2]
`)
	if rep := sverify.Verify(ok, sverify.Config{}); !rep.OK() {
		t.Errorf("return-value read rejected:\n%s", rep)
	}
}

// TestRejectFallOff covers both fall-off flavors: past the end of the
// text segment, and into another function's entry.
func TestRejectFallOff(t *testing.T) {
	im := assemble(t, `
main:
    ADDi [0], 1
`)
	rep := sverify.Verify(im, sverify.Config{})
	wantKind(t, rep, sverify.FallOff)

	im = assemble(t, `
main:
    JAL f
    ADDi [0], 1
f:
    SYS exit, [0]
`)
	rep = sverify.Verify(im, sverify.Config{})
	d := wantKind(t, rep, sverify.FallOff)
	if !strings.Contains(d.Msg, "f") {
		t.Errorf("message should name the clobbered function: %q", d.Msg)
	}
}

// TestRejectBranchIntoOtherFunction: a branch may not target another
// function's entry (that would be a call without a link).
func TestRejectBranchIntoOtherFunction(t *testing.T) {
	im := assemble(t, `
main:
    JAL f
    BEZ [2], f
    SYS exit, [2]
f:
    ADDi [0], 5
    JR [2]
`)
	rep := sverify.Verify(im, sverify.Config{})
	wantKind(t, rep, sverify.BadTarget)
}

// TestUnreachableIsWarning: dead text is reported but does not fail
// verification.
func TestUnreachableIsWarning(t *testing.T) {
	im := assemble(t, `
main:
    J end
    ADDi [0], 99
end:
    SYS exit, [0]
`)
	rep := sverify.Verify(im, sverify.Config{})
	if !rep.OK() {
		t.Fatalf("warnings must not fail verification:\n%s", rep)
	}
	d := wantKind(t, rep, sverify.Unreachable)
	if !d.Kind.Warning() {
		t.Error("Unreachable should be a warning")
	}
	if err := sverify.Check(im, sverify.Config{}); err != nil {
		t.Errorf("Check should pass with warnings only: %v", err)
	}
}

// TestIndirectTargetVerified: a function only referenced through a
// pointer (LUI/ORi materialization) is still discovered and verified.
func TestIndirectTargetVerified(t *testing.T) {
	im := assemble(t, `
main:
    LUI hi(g)
    ORi [1], lo(g)
    JALR [1]
    SYS exit, [2]
g:
    BNZ [2], g_a
    ADDi [0], 1
g_a:
    RMOV [3]
    JR [4]
`)
	rep := sverify.Verify(im, sverify.Config{})
	if rep.OK() {
		t.Fatalf("join mismatch in pointer-only function not detected:\n%s", rep)
	}
	wantKind(t, rep, sverify.JoinMismatch)
	if rep.Funcs != 2 {
		t.Errorf("Funcs = %d, want 2 (main and the pointer target g)", rep.Funcs)
	}
}

// TestCheckAndReportFormatting: Check returns an error whose text names
// the PC and shows a disassembly window with the faulting instruction
// marked.
func TestCheckAndReportFormatting(t *testing.T) {
	im := assemble(t, `
main:
    ADD [1], [2]
    SYS exit, [0]
`)
	err := sverify.Check(im, sverify.Config{})
	if err == nil {
		t.Fatal("Check accepted an invalid image")
	}
	msg := err.Error()
	if !strings.Contains(msg, "read-before-entry") {
		t.Errorf("error should carry the kind: %s", msg)
	}
	if !strings.Contains(msg, fmt.Sprintf("%#08x", im.Entry)) {
		t.Errorf("error should carry the faulting PC %#08x: %s", im.Entry, msg)
	}
	if !strings.Contains(msg, " > ") || !strings.Contains(msg, "ADD") {
		t.Errorf("error should include a marked disassembly window: %s", msg)
	}

	rep := sverify.Verify(im, sverify.Config{})
	if s := rep.String(); !strings.Contains(s, "violation") {
		t.Errorf("report summary missing violation count: %s", s)
	}
	if got := kinds(rep); got[sverify.ReadBeforeEntry] == 0 {
		t.Errorf("kind histogram missing ReadBeforeEntry: %v", got)
	}
}
