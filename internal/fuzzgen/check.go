package fuzzgen

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/rasm"
	"straight/internal/sasm"
	"straight/internal/sverify"
	"straight/internal/uarch"
)

// Divergence is a detected mismatch between two models that should
// agree. It doubles as the error value a RetireFn returns to stop a core
// at the first diverging retirement.
type Divergence struct {
	Stage  string // which oracle pair disagreed
	Seq    uint64 // retirement index of the first mismatch (when known)
	PC     uint32
	Detail string
}

func (d *Divergence) Error() string {
	if d.Seq > 0 || d.PC != 0 {
		return fmt.Sprintf("%s divergence at retirement %d pc=%#x: %s", d.Stage, d.Seq, d.PC, d.Detail)
	}
	return fmt.Sprintf("%s divergence: %s", d.Stage, d.Detail)
}

// CheckOptions bound a check run.
type CheckOptions struct {
	MaxInsns  uint64 // functional-emulator instruction bound
	MaxCycles int64  // per-core cycle bound
	InjectBug string // forwarded to straightcore (mutation testing)
	EmuOnly   bool   // stop after the cross-emulator comparison (skip the cores)
	// NoIdleSkip forwards to both cycle cores, forcing strict per-cycle
	// stepping. The fuzz driver alternates it by seed so the lockstep
	// oracle exercises the idle-skip fast path and the plain path on the
	// same program population.
	NoIdleSkip bool
	// Tracer, when non-nil, is attached to the STRAIGHT core during its
	// lockstep run so a divergence can be annotated with the pipeline
	// history of the offending instruction (straight-fuzz does this on
	// minimized reproducers).
	Tracer *ptrace.Tracer
}

// DefaultCheckOptions are sized for the deepest programs the generator
// can emit (nested max-trip loops full of max-length filler).
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{MaxInsns: 8_000_000, MaxCycles: 80_000_000}
}

// Outcome carries the artifacts of one differential check.
type Outcome struct {
	SAsm, RAsm     string
	SImage, RImage *program.Image
	Output         string // console output (agreed by all models when Div == nil)
	ExitCode       int32
	Div            *Divergence // nil when every oracle agreed
}

// checkpointEvery is how often the lockstep reference emulators snapshot
// themselves so a divergence report can replay the golden tail.
const checkpointEvery = 1024

// goldenTail is how many reference retirements the replay includes in a
// divergence report.
const goldenTail = 6

// Check generates nothing itself: it lowers, assembles, statically
// verifies, and then runs the full oracle stack on an abstract program.
// A returned error means the harness or generator is broken (illegal
// assembly, sverify violation, emulator fault, missed exit) — that is a
// bug in this package, never a legitimate core divergence. A non-nil
// Outcome.Div means two models that must agree did not.
func Check(p *Prog, opts CheckOptions) (*Outcome, error) {
	out := &Outcome{SAsm: LowerSTRAIGHT(p), RAsm: LowerRISCV(p)}

	simg, err := sasm.Assemble(out.SAsm)
	if err != nil {
		return nil, fmt.Errorf("fuzzgen: STRAIGHT lowering does not assemble: %w", err)
	}
	rimg, err := rasm.Assemble(out.RAsm)
	if err != nil {
		return nil, fmt.Errorf("fuzzgen: RISC-V lowering does not assemble: %w", err)
	}
	out.SImage, out.RImage = simg, rimg

	// Oracle 0: the static verifier. The generator promises
	// verifier-clean images; a violation is a generator bug.
	if err := sverify.Check(simg, sverify.Config{MaxDistance: p.Cfg.MaxDistance}); err != nil {
		return nil, fmt.Errorf("fuzzgen: generated image violates sverify invariants: %w", err)
	}

	// Oracle 1: the strict functional emulators. Any fault here (classified
	// by FaultKind) is a generator bug, not a core divergence.
	var sbuf bytes.Buffer
	semu := straightemu.New(simg)
	semu.SetStrict(p.Cfg.MaxDistance)
	semu.SetOutput(&sbuf)
	if _, err := semu.Run(opts.MaxInsns); err != nil {
		return nil, fmt.Errorf("fuzzgen: strict straightemu rejects generated program: %w", err)
	}
	sExited, sCode := semu.Exited()
	if !sExited {
		return nil, fmt.Errorf("fuzzgen: generated STRAIGHT program did not exit")
	}

	var rbuf bytes.Buffer
	remu := riscvemu.New(rimg)
	remu.SetOutput(&rbuf)
	if _, err := remu.Run(opts.MaxInsns); err != nil {
		return nil, fmt.Errorf("fuzzgen: riscvemu rejects generated program: %w", err)
	}
	rExited, rCode := remu.Exited()
	if !rExited {
		return nil, fmt.Errorf("fuzzgen: generated RISC-V program did not exit")
	}

	out.Output = sbuf.String()
	out.ExitCode = sCode

	// Oracle 2: cross-ISA functional equivalence (output, exit code, and
	// the shared global regions — stacks legitimately differ).
	if d := compareObservables("cross-emu", p,
		sbuf.String(), sCode, semu.Mem(), simg,
		rbuf.String(), rCode, remu.Mem(), rimg); d != nil {
		out.Div = d
		return out, nil
	}
	if opts.EmuOnly {
		return out, nil
	}

	// Oracle 3: straightcore vs an external strict reference emulator,
	// retirement by retirement.
	if d := lockstepStraight(p, simg, opts, sbuf.String(), sCode, semu.Mem()); d != nil {
		out.Div = d
		return out, nil
	}

	// Oracle 4: sscore vs riscvemu, retirement by retirement.
	if d := lockstepSS(p, rimg, opts, rbuf.String(), rCode, remu.Mem()); d != nil {
		out.Div = d
		return out, nil
	}

	return out, nil
}

// compareObservables checks output, exit code, and the gw/gb global
// regions between two runs (of possibly different ISAs).
func compareObservables(stage string, p *Prog,
	aOut string, aCode int32, aMem *program.Memory, aImg *program.Image,
	bOut string, bCode int32, bMem *program.Memory, bImg *program.Image) *Divergence {
	if aOut != bOut {
		return &Divergence{Stage: stage, Detail: fmt.Sprintf("console output %q vs %q", clip(aOut), clip(bOut))}
	}
	if aCode != bCode {
		return &Divergence{Stage: stage, Detail: fmt.Sprintf("exit code %d vs %d", aCode, bCode)}
	}
	aw, _ := aImg.Symbol("gw")
	bw, _ := bImg.Symbol("gw")
	for i := 0; i < p.Cfg.DataWords; i++ {
		av := aMem.Load(aw+uint32(4*i), 4)
		bv := bMem.Load(bw+uint32(4*i), 4)
		if av != bv {
			return &Divergence{Stage: stage, Detail: fmt.Sprintf("gw[%d] = %#x vs %#x", i, av, bv)}
		}
	}
	ab, _ := aImg.Symbol("gb")
	bb, _ := bImg.Symbol("gb")
	for i := 0; i < p.Cfg.DataBytes; i++ {
		av := aMem.Load(ab+uint32(i), 1)
		bv := bMem.Load(bb+uint32(i), 1)
		if av != bv {
			return &Divergence{Stage: stage, Detail: fmt.Sprintf("gb[%d] = %#x vs %#x", i, av, bv)}
		}
	}
	return nil
}

func clip(s string) string {
	if len(s) > 64 {
		return s[:64] + "…"
	}
	return s
}

// lockstepStraight runs straightcore with an external strict straightemu
// stepped inside the RetireFn hook. The internal cross-validation stays
// off: the point is that an out-of-process observer using only the
// public retirement stream catches the same (and injected) bugs.
func lockstepStraight(p *Prog, simg *program.Image, opts CheckOptions,
	wantOut string, wantCode int32, wantMem *program.Memory) (div *Divergence) {
	// A core panic (an internal invariant detector firing, e.g. the
	// free-list walk double-free check under an injected defect) is a
	// caught divergence, not a harness crash: the minimizer must be able
	// to shrink panicking reproducers like any other.
	defer func() {
		if r := recover(); r != nil {
			div = &Divergence{Stage: "straight-core-panic", Detail: fmt.Sprint(r)}
		}
	}()
	ref := straightemu.New(simg)
	ref.SetStrict(p.Cfg.MaxDistance)
	ref.SetOutput(io.Discard)

	cfg := uarch.Straight4Way()
	cfg.MaxDistance = p.Cfg.MaxDistance

	var cp *straightemu.Checkpoint
	var cpSeq uint64
	var outBuf bytes.Buffer
	core := cores.ForISA(cores.ISAStraight).New(cfg, simg, engine.Options{Output: &outBuf, Tracer: opts.Tracer})
	res, err := core.Run(engine.Options{
		MaxCycles:  opts.MaxCycles,
		Output:     &outBuf,
		InjectBug:  opts.InjectBug,
		NoIdleSkip: opts.NoIdleSkip,
		RetireFn: func(r uarch.Retirement) error {
			if r.Seq%checkpointEvery == 0 {
				cp, cpSeq = ref.Checkpoint(), r.Seq
			}
			var want straightemu.Retired
			traced := false
			ref.TraceFn = func(rr straightemu.Retired) { want, traced = rr, true }
			stepErr := ref.Step()
			ref.TraceFn = nil
			// The step that executes SYS exit traces the retirement and
			// then reports io.EOF; that is still a comparable retirement.
			if stepErr != nil && !(stepErr == io.EOF && traced) {
				return &Divergence{Stage: "straight-lockstep", Seq: r.Seq, PC: r.PC,
					Detail: fmt.Sprintf("reference emulator cannot follow retirement stream: %v", stepErr)}
			}
			if want.PC != r.PC {
				return &Divergence{Stage: "straight-lockstep", Seq: r.Seq, PC: r.PC,
					Detail: fmt.Sprintf("retired pc=%#x, reference expects pc=%#x (%v)%s",
						r.PC, want.PC, want.Inst, goldenWindow(ref, simg, cp, cpSeq, r.Seq))}
			}
			if r.HasValue && r.Value != want.Result {
				return &Divergence{Stage: "straight-lockstep", Seq: r.Seq, PC: r.PC,
					Detail: fmt.Sprintf("retired value %#x, reference computes %#x (%v)%s",
						r.Value, want.Result, want.Inst, goldenWindow(ref, simg, cp, cpSeq, r.Seq))}
			}
			return nil
		},
	})
	if err != nil {
		var d *Divergence
		if errors.As(err, &d) {
			return d
		}
		return &Divergence{Stage: "straight-core-error", Detail: err.Error()}
	}
	return compareObservables("straight-core", p,
		res.Output, res.ExitCode, core.Mem(), simg,
		wantOut, wantCode, wantMem, simg)
}

// lockstepSS mirrors lockstepStraight for the superscalar baseline.
func lockstepSS(p *Prog, rimg *program.Image, opts CheckOptions,
	wantOut string, wantCode int32, wantMem *program.Memory) (div *Divergence) {
	defer func() {
		if r := recover(); r != nil {
			div = &Divergence{Stage: "ss-core-panic", Detail: fmt.Sprint(r)}
		}
	}()
	ref := riscvemu.New(rimg)
	ref.SetOutput(io.Discard)

	cfg := uarch.SS4Way()

	var outBuf bytes.Buffer
	core := cores.ForISA(cores.ISARISCV).New(cfg, rimg, engine.Options{Output: &outBuf})
	res, err := core.Run(engine.Options{
		MaxCycles:  opts.MaxCycles,
		Output:     &outBuf,
		InjectBug:  opts.InjectBug,
		NoIdleSkip: opts.NoIdleSkip,
		RetireFn: func(r uarch.Retirement) error {
			var want riscvemu.Retired
			traced := false
			ref.TraceFn = func(rr riscvemu.Retired) { want, traced = rr, true }
			stepErr := ref.Step()
			ref.TraceFn = nil
			if stepErr != nil && !(stepErr == io.EOF && traced) {
				return &Divergence{Stage: "ss-lockstep", Seq: r.Seq, PC: r.PC,
					Detail: fmt.Sprintf("reference emulator cannot follow retirement stream: %v", stepErr)}
			}
			if want.PC != r.PC {
				return &Divergence{Stage: "ss-lockstep", Seq: r.Seq, PC: r.PC,
					Detail: fmt.Sprintf("retired pc=%#x, reference expects pc=%#x (%v)", r.PC, want.PC, want.Inst)}
			}
			if r.HasValue && want.Inst.WritesRd() && want.Inst.Rd != 0 && r.Value != want.Result {
				return &Divergence{Stage: "ss-lockstep", Seq: r.Seq, PC: r.PC,
					Detail: fmt.Sprintf("retired %v value %#x, reference computes %#x", want.Inst, r.Value, want.Result)}
			}
			return nil
		},
	})
	if err != nil {
		var d *Divergence
		if errors.As(err, &d) {
			return d
		}
		return &Divergence{Stage: "ss-core-error", Detail: err.Error()}
	}
	return compareObservables("ss-core", p,
		res.Output, res.ExitCode, core.Mem(), rimg,
		wantOut, wantCode, wantMem, rimg)
}

// goldenWindow rewinds the reference emulator to its last checkpoint and
// replays up to the divergence, rendering the golden retirement tail the
// core should have produced. It is the reporting path the step-wise
// Checkpoint/Restore API exists for.
func goldenWindow(ref *straightemu.Machine, simg *program.Image, cp *straightemu.Checkpoint, cpSeq, seq uint64) string {
	if cp == nil || seq < cpSeq {
		return ""
	}
	ref.Restore(cp)
	var tail []straightemu.Retired
	ref.TraceFn = func(r straightemu.Retired) {
		tail = append(tail, r)
		if len(tail) > goldenTail {
			tail = tail[1:]
		}
	}
	// Replay to just past the diverging retirement (the checkpointed
	// count is the number of retired instructions at cpSeq).
	for i := cpSeq; i <= seq; i++ {
		if ref.Step() != nil {
			break
		}
	}
	ref.TraceFn = nil
	var b strings.Builder
	b.WriteString("\n  golden tail:")
	for _, r := range tail {
		fmt.Fprintf(&b, "\n    #%-6d pc=%#08x %-24v -> %#x", r.Count, r.PC, r.Inst, r.Result)
	}
	if len(tail) > 0 {
		b.WriteString("\n  context:\n")
		b.WriteString(indent(sverify.Window(simg, tail[len(tail)-1].PC, 3), "    "))
	}
	return b.String()
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n")
}
