package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/rasm"
	"straight/internal/sasm"
	"straight/internal/sverify"
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

// buildEntry is a singleflight slot: the first caller for a key runs the
// build inside the Once; every other caller (concurrent or later) blocks
// on the Once and then reads the immutable result.
type buildEntry struct {
	once sync.Once
	im   *program.Image
	err  error
}

var (
	builds      sync.Map // buildKey -> *buildEntry
	buildCalls  atomic.Int64
	buildMisses atomic.Int64
)

// BuildCacheStats returns the cumulative build-cache counters: hits is
// the number of Build* calls served from an already-built (or in-flight)
// image, misses the number of actual compilations.
func BuildCacheStats() (hits, misses int64) {
	m := buildMisses.Load()
	return buildCalls.Load() - m, m
}

// ResetBuildCache drops every cached image and zeroes the counters
// (test helper; not safe concurrently with in-flight builds).
func ResetBuildCache() {
	builds = sync.Map{}
	buildCalls.Store(0)
	buildMisses.Store(0)
}

// buildOnce runs f exactly once per key, concurrent callers included,
// and hands every caller the same immutable image.
func buildOnce(key buildKey, f func() (*program.Image, error)) (*program.Image, error) {
	buildCalls.Add(1)
	e, _ := builds.LoadOrStore(key, &buildEntry{})
	entry := e.(*buildEntry)
	entry.once.Do(func() {
		buildMisses.Add(1)
		entry.im, entry.err = f()
	})
	return entry.im, entry.err
}

// module parses, lowers and optimizes a workload into a fresh IR module.
// Each build gets its own module: the backends annotate the module they
// compile (value-ID counters and synthetic values), so a module shared
// across builds would make compilation order-dependent and racy.
func module(w workloads.Workload, iters int) (*ir.Module, error) {
	src, err := workloads.Source(w, iters)
	if err != nil {
		return nil, err
	}
	file, err := minic.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w, err)
	}
	mod, err := irgen.Build(file)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w, err)
	}
	ir.OptimizeModule(mod)
	return mod, nil
}

// BuildRISCV compiles a workload for the SS core. Images are cached by
// (workload, iters): each distinct key is built exactly once, even under
// concurrent callers, and the returned image is shared read-only.
func BuildRISCV(w workloads.Workload, iters int) (*program.Image, error) {
	return buildOnce(buildKey{w: w, iters: iters, target: "riscv"}, func() (*program.Image, error) {
		mod, err := module(w, iters)
		if err != nil {
			return nil, err
		}
		asm, err := riscvbe.Compile(mod)
		if err != nil {
			return nil, err
		}
		return rasm.Assemble(asm)
	})
}

// BuildSTRAIGHT compiles a workload for the STRAIGHT core. Images are
// cached by (workload, iters, maxDist, mode) with the same
// exactly-once, shared-read-only contract as BuildRISCV.
func BuildSTRAIGHT(w workloads.Workload, iters, maxDist int, mode CompilerMode) (*program.Image, error) {
	key := buildKey{w: w, iters: iters, target: "straight", maxDist: maxDist, mode: mode}
	return buildOnce(key, func() (*program.Image, error) {
		mod, err := module(w, iters)
		if err != nil {
			return nil, err
		}
		asm, err := straightbe.Compile(mod, straightbe.Options{
			MaxDistance:    maxDist,
			RedundancyElim: mode == ModeREP,
		})
		if err != nil {
			return nil, err
		}
		im, err := sasm.Assemble(asm)
		if err != nil {
			return nil, err
		}
		// Verification runs inside the singleflight closure, so each
		// distinct build key is proven hazard-consistent exactly once no
		// matter how many sweep points share the image.
		if err := sverify.Check(im, sverify.Config{MaxDistance: maxDist}); err != nil {
			return nil, fmt.Errorf("%s d=%d %s: %w", w, maxDist, mode, err)
		}
		return im, nil
	})
}

const simCycleCap = 2_000_000_000

// Simulate runs an image to completion on the named cycle core, with an
// optional pipeline tracer attached, and checks the resulting counters
// for internal consistency. Interrupt cancels it mid-run.
func Simulate(core CoreKind, cfg uarch.Config, im *program.Image, tr *ptrace.Tracer) (*engine.Result, error) {
	m, err := cores.Lookup(string(core))
	if err != nil {
		return nil, err
	}
	opts := engine.Options{MaxCycles: simCycleCap, Tracer: tr, Interrupt: &interruptFlag}
	res, err := m.New(cfg, im, opts).Run(opts)
	if err != nil {
		return nil, err
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
