package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"straight/internal/core"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// CoreKind selects the engine a sweep point runs on.
type CoreKind string

const (
	// CoreSS is the cycle-level superscalar baseline.
	CoreSS CoreKind = "ss"
	// CoreStraight is the cycle-level STRAIGHT core.
	CoreStraight CoreKind = "straight"
	// CoreCG is the cycle-level coarse-grain OoO comparison core
	// (SS rename, block-granular issue; arXiv 1606.01607).
	CoreCG CoreKind = "cg"
	// CoreEmuRISCV is the functional RV32IM emulator (used where the
	// figure is microarchitecture-independent, e.g. Fig 15).
	CoreEmuRISCV CoreKind = "emu-riscv"
	// CoreEmuStraight is the functional STRAIGHT emulator.
	CoreEmuStraight CoreKind = "emu-straight"
)

// Cycle reports whether the kind is a cycle-level core (carries a
// uarch.Config and produces uarch.Stats): a name in the core registry.
func (k CoreKind) Cycle() bool {
	_, err := cores.Lookup(string(k))
	return err == nil
}

// isa reports the instruction set the kind's engine runs: the
// registry's for a cycle core, the emulated one for a functional
// engine. Unknown kinds are an error listing the valid ones.
func (k CoreKind) isa() (string, error) {
	switch k {
	case CoreEmuRISCV:
		return cores.ISARISCV, nil
	case CoreEmuStraight:
		return cores.ISAStraight, nil
	}
	m, err := cores.Lookup(string(k))
	if err != nil {
		return "", fmt.Errorf("unknown core kind %q (valid: %s, %s, %s)",
			k, strings.Join(cores.Names(), ", "), CoreEmuRISCV, CoreEmuStraight)
	}
	return m.ISA, nil
}

// build compiles the point's workload for its engine's ISA.
func (s *Session) build(p SweepPoint) (*program.Image, error) {
	isa, err := p.Core.isa()
	if err != nil {
		return nil, err
	}
	if isa == cores.ISAStraight {
		return s.BuildSTRAIGHT(p.Workload, p.Iters, p.MaxDist, p.Mode)
	}
	return s.BuildRISCV(p.Workload, p.Iters)
}

// SweepPoint is one independent (workload, engine, configuration)
// simulation of a figure sweep. Points carry everything needed to build
// and run themselves, so a session can execute any subset in any order.
type SweepPoint struct {
	// Section names the figure or table the point belongs to
	// (e.g. "Fig 11"); Label identifies the point within it.
	Section string
	Label   string

	Workload workloads.Workload
	Core     CoreKind
	Iters    int

	// Mode and MaxDist select the STRAIGHT build (ignored for the
	// RISC-V engines).
	Mode    CompilerMode
	MaxDist int

	// Config parameterizes the cycle cores (ignored by the emulators).
	Config uarch.Config
}

// Name identifies the point as "Section/Label" (the -trace-point and
// daemon-log naming).
func (p SweepPoint) Name() string {
	if p.Section == "" {
		return p.Label
	}
	return p.Section + "/" + p.Label
}

// SSPoint builds a cycle-level SS point.
func SSPoint(section, label string, w workloads.Workload, iters int, cfg uarch.Config) SweepPoint {
	return SweepPoint{Section: section, Label: label, Workload: w, Core: CoreSS, Iters: iters, Config: cfg}
}

// CGPoint builds a cycle-level coarse-grain OoO point (runs the same
// RISC-V build as SSPoint).
func CGPoint(section, label string, w workloads.Workload, iters int, cfg uarch.Config) SweepPoint {
	return SweepPoint{Section: section, Label: label, Workload: w, Core: CoreCG, Iters: iters, Config: cfg}
}

// StraightPoint builds a cycle-level STRAIGHT point; the compiled
// image's distance bound is taken from cfg.MaxDistance so build and
// model always agree.
func StraightPoint(section, label string, w workloads.Workload, iters int, mode CompilerMode, cfg uarch.Config) SweepPoint {
	return SweepPoint{Section: section, Label: label, Workload: w, Core: CoreStraight,
		Iters: iters, Mode: mode, MaxDist: cfg.MaxDistance, Config: cfg}
}

// PointResult is the outcome of one executed point. Exactly one of the
// engine-specific stats fields is set, matching Point.Core; the scalar
// summary fields are filled for every engine that has them. Every field
// except Trace is plain data, so results round-trip through the
// persistent store and the daemon wire format (see ResultData).
type PointResult struct {
	Point   SweepPoint
	Cycles  int64 // cycle cores only
	Retired uint64
	IPC     float64 // cycle cores only
	Output  string  // cycle cores only (emulators discard console output)
	Wall    time.Duration

	// Cached reports the result was served from the result store (or by
	// a daemon without re-simulation); Wall then holds the original
	// simulation's wall time, not the lookup's.
	Cached bool

	// Stats is set for the cycle cores (every registry kind).
	Stats *uarch.Stats
	// EmuRISCV / EmuStraight are set for the functional engines.
	EmuRISCV    *riscvemu.Stats
	EmuStraight *straightemu.Stats

	// Trace is set when this point was its session's trace target.
	Trace *TraceRecord
}

// simulatePoint performs the actual build + simulation of a point.
// Cancelling ctx or the session stops a cycle-core run.
func (s *Session) simulatePoint(ctx context.Context, p SweepPoint, tgt *TraceTarget) (PointResult, error) {
	start := time.Now()
	res := PointResult{Point: p}
	im, err := s.build(p)
	if err != nil {
		return res, err
	}
	switch {
	case p.Core.Cycle():
		stop, unregister := s.stopFlag(ctx)
		defer unregister()
		var r *engine.Result
		run := func(tr *ptrace.Tracer) (err error) {
			r, err = simulate(p.Core, p.Config, im, tr, stop, &s.cores)
			return err
		}
		if tgt != nil {
			res.Trace, err = withTracer(tgt, run)
		} else {
			err = run(nil)
		}
		if err != nil {
			return res, err
		}
		res.Stats = &r.Stats
		res.Cycles = r.Stats.Cycles
		res.Retired = r.Stats.Retired
		res.IPC = r.Stats.IPC()
		res.Output = r.Output
	default: // a functional emulator: build rejected every other kind
		isa, _ := p.Core.isa()
		r, err := core.Emulate(&core.Program{Target: core.Target(isa), Image: im}, nil)
		if err != nil {
			return res, err
		}
		res.EmuRISCV, res.EmuStraight, res.Retired = r.RISCVStats, r.StraightStats, r.Insns
	}
	res.Wall = time.Since(start)
	return res, nil
}
