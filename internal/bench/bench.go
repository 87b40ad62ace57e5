package bench

import (
	"fmt"
	"sync/atomic"

	"straight/internal/core"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// Scale selects iteration counts. The paper runs 9000 Dhrystone
// iterations and 9 CoreMark iterations; the default here is smaller so
// the full suite completes in minutes, and ScalePaper approaches the
// paper's run lengths.
type Scale struct {
	DhrystoneIters int
	CoreMarkIters  int
	MicroIters     int
}

// ScaleQuick is used by tests.
var ScaleQuick = Scale{DhrystoneIters: 30, CoreMarkIters: 1, MicroIters: 1}

// ScaleDefault is used by the benchmarks and cmd/experiments.
var ScaleDefault = Scale{DhrystoneIters: 200, CoreMarkIters: 1, MicroIters: 2}

// CompilerMode selects RAW or RE+ code generation.
type CompilerMode string

const (
	ModeRAW CompilerMode = "RAW"
	ModeREP CompilerMode = "RE+"
)

// buildKey identifies one compiled image.
type buildKey struct {
	w       workloads.Workload
	iters   int
	target  string // "riscv" or "straight"
	maxDist int
	mode    CompilerMode
}

// compile builds a workload through core.CompileC, the one
// MiniC-to-image pipeline. Each build lowers its own IR module: the
// backends annotate the module they compile (value-ID counters and
// synthetic values), so a module shared across builds would make
// compilation order-dependent and racy.
func compile(w workloads.Workload, iters int, target core.Target, opts core.CompileOptions) (*program.Image, error) {
	src, err := workloads.Source(w, iters)
	if err != nil {
		return nil, err
	}
	prog, err := core.CompileC(src, target, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w, err)
	}
	return prog.Image, nil
}

// BuildRISCV compiles a workload for the SS core in the default session.
func BuildRISCV(w workloads.Workload, iters int) (*program.Image, error) {
	return defaultSession.BuildRISCV(w, iters)
}

// BuildSTRAIGHT compiles a workload for the STRAIGHT core in the
// default session.
func BuildSTRAIGHT(w workloads.Workload, iters, maxDist int, mode CompilerMode) (*program.Image, error) {
	return defaultSession.BuildSTRAIGHT(w, iters, maxDist, mode)
}

// BuildRISCV compiles a workload for the SS core. Images are cached by
// (workload, iters): each distinct key is built exactly once per
// session, even under concurrent callers, and the returned image is
// shared read-only.
func (s *Session) BuildRISCV(w workloads.Workload, iters int) (*program.Image, error) {
	return s.buildOnce(buildKey{w: w, iters: iters, target: "riscv"}, func() (*program.Image, error) {
		return compile(w, iters, core.TargetRISCV, core.CompileOptions{})
	})
}

// BuildSTRAIGHT compiles a workload for the STRAIGHT core. Images are
// cached by (workload, iters, maxDist, mode) with the same
// exactly-once, shared-read-only contract as BuildRISCV. The backend's
// post-compile assertion verifies the image at maxDist (0 reads as the
// ISA maximum) inside the singleflight closure, so each distinct build
// key is proven hazard-consistent exactly once, on the bytes it caches.
func (s *Session) BuildSTRAIGHT(w workloads.Workload, iters, maxDist int, mode CompilerMode) (*program.Image, error) {
	key := buildKey{w: w, iters: iters, target: "straight", maxDist: maxDist, mode: mode}
	return s.buildOnce(key, func() (*program.Image, error) {
		return compile(w, iters, core.TargetStraight,
			core.CompileOptions{MaxDistance: maxDist, RedundancyElim: mode == ModeREP})
	})
}

const simCycleCap = 2_000_000_000

// Simulate runs an image to completion on a new core of the named
// cycle machine, with an optional pipeline tracer attached, and checks
// the resulting counters for internal consistency.
func Simulate(core CoreKind, cfg uarch.Config, im *program.Image, tr *ptrace.Tracer) (*engine.Result, error) {
	return simulate(core, cfg, im, tr, nil, nil)
}

// simulate is Simulate with an interrupt flag, raising which cancels
// the run within one advance, and a core pool: an untraced run takes
// its core from pool when one is given, and returns it after a
// successful run.
func simulate(core CoreKind, cfg uarch.Config, im *program.Image, tr *ptrace.Tracer, stop *atomic.Bool, pool *cores.Pool) (*engine.Result, error) {
	m, err := cores.Lookup(string(core))
	if err != nil {
		return nil, err
	}
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	opts := engine.Options{MaxCycles: simCycleCap, Tracer: tr, Interrupt: stop}
	if tr != nil {
		pool = nil // a tracer attaches at construction: traced cores are never pooled
	}
	var sim cores.Sim
	if pool != nil {
		sim = pool.Get(m, cfg, im)
	} else {
		sim = m.New(cfg, im, opts)
	}
	res, err := sim.Run(opts)
	if err != nil {
		return nil, err
	}
	if pool != nil {
		pool.Put(m, cfg, sim)
	}
	if err := res.Stats.Check(cfg); err != nil {
		return nil, err
	}
	return res, nil
}

func iters(s Scale, w workloads.Workload) int {
	switch w {
	case workloads.Dhrystone:
		return s.DhrystoneIters
	case workloads.CoreMark:
		return s.CoreMarkIters
	default:
		return s.MicroIters
	}
}
