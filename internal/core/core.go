// Package core is the library's public facade: one documented API that
// ties the whole STRAIGHT system together — the MiniC front end, the SSA
// middle end, the STRAIGHT and RISC-V backends, the assemblers, the
// functional emulators and the cycle-accurate simulators.
//
// A typical flow:
//
//	tc := core.NewToolchain()
//	prog, err := tc.CompileC(src, core.TargetStraight, core.CompileOptions{RedundancyElim: true})
//	out, err := core.Emulate(prog, nil)                  // architectural run
//	res, err := core.Simulate(prog, uarch.Straight4Way()) // cycle-accurate run
//	fmt.Println(res.Stats.IPC())
package core

import (
	"fmt"
	"io"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/program"
	"straight/internal/rasm"
	"straight/internal/sasm"
	"straight/internal/uarch"
)

// Target selects the instruction set a program is compiled for. Its
// value is the core registry's ISA name.
type Target string

const (
	// TargetStraight compiles for the STRAIGHT ISA.
	TargetStraight Target = cores.ISAStraight
	// TargetRISCV compiles for RV32IM (the superscalar baseline).
	TargetRISCV Target = cores.ISARISCV
)

// CompileOptions configure code generation.
type CompileOptions struct {
	// MaxDistance bounds STRAIGHT operand distances (0 = ISA max 1023).
	MaxDistance int
	// RedundancyElim enables the RE+ optimizations (paper §IV-D).
	RedundancyElim bool
	// EmitAssembly, when non-nil, receives the generated assembly text.
	EmitAssembly io.Writer
}

// Program is a compiled, linked executable for one of the two ISAs.
type Program struct {
	Target Target
	Image  *program.Image
	// Assembly is the generated assembly text.
	Assembly string
}

// Toolchain compiles MiniC or assembly into runnable programs.
type Toolchain struct{}

// NewToolchain returns a ready toolchain.
func NewToolchain() *Toolchain { return &Toolchain{} }

// CompileC compiles MiniC source for the chosen target at -O2-equivalent
// optimization.
func (tc *Toolchain) CompileC(src string, target Target, opts CompileOptions) (*Program, error) {
	file, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	mod, err := irgen.Build(file)
	if err != nil {
		return nil, err
	}
	ir.OptimizeModule(mod)
	return tc.CompileIR(mod, target, opts)
}

// CompileIR lowers an already-built IR module.
func (tc *Toolchain) CompileIR(mod *ir.Module, target Target, opts CompileOptions) (*Program, error) {
	var asm string
	var err error
	switch target {
	case TargetStraight:
		asm, err = straightbe.Compile(mod, straightbe.Options{
			MaxDistance:    opts.MaxDistance,
			RedundancyElim: opts.RedundancyElim,
		})
	case TargetRISCV:
		asm, err = riscvbe.Compile(mod)
	default:
		return nil, fmt.Errorf("core: unknown target %q", target)
	}
	if err != nil {
		return nil, err
	}
	if opts.EmitAssembly != nil {
		io.WriteString(opts.EmitAssembly, asm)
	}
	return tc.Assemble(asm, target)
}

// Assemble assembles target assembly text into a program.
func (tc *Toolchain) Assemble(asm string, target Target) (*Program, error) {
	var im *program.Image
	var err error
	switch target {
	case TargetStraight:
		im, err = sasm.Assemble(asm)
	case TargetRISCV:
		im, err = rasm.Assemble(asm)
	default:
		return nil, fmt.Errorf("core: unknown target %q", target)
	}
	if err != nil {
		return nil, err
	}
	return &Program{Target: target, Image: im, Assembly: asm}, nil
}

// EmulateResult is the outcome of an architectural (functional) run.
type EmulateResult struct {
	Output   string
	ExitCode int32
	Insns    uint64
	// StraightStats is populated for STRAIGHT programs (instruction mix,
	// operand distances).
	StraightStats *straightemu.Stats
	// RISCVStats is populated for RISC-V programs.
	RISCVStats *riscvemu.Stats
}

// Emulate runs a program on its functional emulator. Console output also
// streams to w when non-nil.
func Emulate(p *Program, w io.Writer) (*EmulateResult, error) {
	const maxInsns = 4_000_000_000
	switch p.Target {
	case TargetStraight:
		m := straightemu.New(p.Image)
		buf := &teeWriter{w: w}
		m.SetOutput(buf)
		n, err := m.Run(maxInsns)
		if err != nil {
			return nil, err
		}
		_, code := m.Exited()
		return &EmulateResult{Output: string(buf.buf), ExitCode: code, Insns: n, StraightStats: m.Stats()}, nil
	case TargetRISCV:
		m := riscvemu.New(p.Image)
		buf := &teeWriter{w: w}
		m.SetOutput(buf)
		n, err := m.Run(maxInsns)
		if err != nil {
			return nil, err
		}
		_, code := m.Exited()
		return &EmulateResult{Output: string(buf.buf), ExitCode: code, Insns: n, RISCVStats: m.Stats()}, nil
	}
	return nil, fmt.Errorf("core: unknown target %q", p.Target)
}

type teeWriter struct {
	w   io.Writer
	buf []byte
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if t.w != nil {
		return t.w.Write(p)
	}
	return len(p), nil
}

// SimResult is the outcome of a cycle-accurate run.
type SimResult struct {
	Output   string
	ExitCode int32
	Stats    uarch.Stats
}

// SimOptions configure cycle simulation.
type SimOptions struct {
	// CrossValidate retires in lockstep with the functional emulator.
	CrossValidate bool
	// MaxCycles bounds the run (0 = effectively unbounded).
	MaxCycles int64
	// Output receives console output as it is produced.
	Output io.Writer
}

// Simulate runs a program on the cycle-accurate core matching its target
// (SS for RISC-V, the renaming-free core for STRAIGHT): the core
// registry's default machine for the program's ISA.
func Simulate(p *Program, cfg uarch.Config, opts ...SimOptions) (*SimResult, error) {
	var o SimOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if p.Target != TargetStraight && p.Target != TargetRISCV {
		return nil, fmt.Errorf("core: unknown target %q", p.Target)
	}
	ropts := engine.Options{CrossValidate: o.CrossValidate, MaxCycles: o.MaxCycles, Output: o.Output}
	res, err := cores.ForISA(string(p.Target)).New(cfg, p.Image, ropts).Run(ropts)
	if err != nil {
		return nil, err
	}
	return &SimResult{Output: res.Output, ExitCode: res.ExitCode, Stats: res.Stats}, nil
}

// Disassemble returns a listing of the program's text segment.
func Disassemble(p *Program) string {
	if p.Target == TargetStraight {
		return sasm.Disassemble(p.Image)
	}
	return rasm.Disassemble(p.Image)
}
