// Package cores is the one place that knows which cycle-level machines
// exist (DESIGN.md §15.5). Each machine is the shared engine steered by
// one policy package; the registry names it, records the instruction
// set its images are compiled for, and constructs it behind the small
// non-generic Sim interface that every layer above the engine drives.
// Adding a policy means one entry here plus its goldens.
package cores

import (
	"fmt"
	"strings"

	"straight/internal/cores/cgcore"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/program"
	"straight/internal/uarch"
)

// Instruction sets a machine's images are compiled for. They also name
// the functional emulator that fast-forwards the machine when sampling.
const (
	ISAStraight = "straight"
	ISARISCV    = "riscv"
)

// Sim is one cycle core, whatever its policy. Every *engine.Core[I]
// satisfies it; the tracer travels in engine.Options like every other
// run setting.
type Sim interface {
	// Run simulates until program exit or a bound in opts is hit.
	Run(opts engine.Options) (*engine.Result, error)
	// RunCycles advances at most n cycles, stopping early on exit.
	RunCycles(opts engine.Options, n int64) error
	// Reset returns the core to power-on state over img (batch reuse).
	Reset(img *program.Image)
	// Restart resets the core and seeds it from a mid-program checkpoint
	// of the machine's ISA emulator (sampled simulation).
	Restart(img *program.Image, ck engine.ArchState) error
	// AdoptWarm installs functionally-warmed caches and predictors after
	// a Restart.
	AdoptWarm(w *uarch.WarmState)
	HasExited() bool
	Stats() uarch.Stats
	SkipStats() uarch.SkipStats
	// Mem exposes the simulated memory for post-run checks.
	Mem() *program.Memory
}

// Machine is one registry entry.
type Machine struct {
	// Name is the key every layer uses: sweep points, perf kernels,
	// sampling targets and stored results.
	Name string
	// ISA is ISAStraight or ISARISCV.
	ISA string
	// New builds the core for an image of the machine's ISA.
	New func(cfg uarch.Config, img *program.Image, opts engine.Options) Sim
}

// machines is the registry, in display order. The first machine of
// each ISA is that ISA's default (ForISA): STRAIGHT, and the paper's
// renaming superscalar for RISC-V.
var machines = []Machine{
	{Name: "straight", ISA: ISAStraight, New: sim(straightcore.New)},
	{Name: "ss", ISA: ISARISCV, New: sim(sscore.New)},
	{Name: "cg", ISA: ISARISCV, New: sim(cgcore.New)},
}

// sim adapts a policy package's typed constructor to Machine.New.
func sim[I engine.Inst](newCore func(uarch.Config, *program.Image, engine.Options) *engine.Core[I]) func(uarch.Config, *program.Image, engine.Options) Sim {
	return func(cfg uarch.Config, img *program.Image, opts engine.Options) Sim { return newCore(cfg, img, opts) }
}

// All returns every registered machine in display order.
func All() []Machine { return append([]Machine(nil), machines...) }

// Names returns the registered machine names in display order.
func Names() []string {
	names := make([]string, len(machines))
	for i, m := range machines {
		names[i] = m.Name
	}
	return names
}

// Lookup returns the machine registered under name. The error for an
// unknown name lists the valid ones.
func Lookup(name string) (Machine, error) {
	for _, m := range machines {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("unknown core %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// ForISA returns the default machine for an instruction set, which
// must be ISAStraight or ISARISCV.
func ForISA(isa string) Machine {
	for _, m := range machines {
		if m.ISA == isa {
			return m
		}
	}
	panic(fmt.Sprintf("cores: no machine for ISA %q", isa))
}
