package perf

import (
	"fmt"
	"strings"
	"time"

	"straight/internal/bench"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/program"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// CoreKind names a kernel's cycle core: a core registry name. It is the
// sweep points' bench.CoreKind, so one enum type serves both.
type CoreKind = bench.CoreKind

// The registry names of the kernels' cores. They stay because the
// benchmark module (benchmark/, compiled separately) compares
// Kernel.Kind against them.
const (
	KindStraight = bench.CoreStraight
	KindSS       = bench.CoreSS
	KindCG       = bench.CoreCG
)

// Kernel names one simulated machine: a core kind at a width.
type Kernel struct {
	// Name identifies the kernel in benchmark output and JSON baselines
	// (e.g. "straight-4way").
	Name string
	// Kind selects the cycle core (a core registry name).
	Kind CoreKind
	// Cfg is the Table I model configuration.
	Cfg uarch.Config
}

// Kernels returns the golden-pinned machines: both original cores at
// both widths, in fixed order. The JSON baseline and golden_stats.json
// key on Name; this list must not change (golden_stats.json is embedded
// and its bytes feed VersionSalt). Kernels added later go in
// ExtraKernels with their own golden file.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "straight-4way", Kind: KindStraight, Cfg: uarch.Straight4Way()},
		{Name: "straight-2way", Kind: KindStraight, Cfg: uarch.Straight2Way()},
		{Name: "ss-4way", Kind: KindSS, Cfg: uarch.SS4Way()},
		{Name: "ss-2way", Kind: KindSS, Cfg: uarch.SS2Way()},
		{Name: "straight-4way-membound", Kind: KindStraight, Cfg: uarch.Straight4WayMemBound()},
		{Name: "ss-4way-membound", Kind: KindSS, Cfg: uarch.SS4WayMemBound()},
	}
}

// ExtraKernels returns machines added after the golden corpus was
// pinned. They are benchmarked and golden-tested like Kernels(), but
// against a separate, non-embedded golden file
// (testdata/golden_stats_extra.json) so the embedded corpus — and hence
// VersionSalt — stays byte-stable.
func ExtraKernels() []Kernel {
	return []Kernel{
		{Name: "cg-4way", Kind: KindCG, Cfg: uarch.CG4Way()},
		{Name: "cg-2way", Kind: KindCG, Cfg: uarch.CG2Way()},
	}
}

// AllKernels returns Kernels() plus ExtraKernels(), in that order.
func AllKernels() []Kernel {
	return append(Kernels(), ExtraKernels()...)
}

// KernelByName returns the kernel with the given Name (searching the
// golden-pinned and extra lists). The error for an unknown name lists
// the valid ones.
func KernelByName(name string) (Kernel, error) {
	var names []string
	for _, k := range AllKernels() {
		if k.Name == name {
			return k, nil
		}
		names = append(names, k.Name)
	}
	return Kernel{}, fmt.Errorf("perf: unknown kernel %q (valid: %s)", name, strings.Join(names, ", "))
}

// BuildImage compiles the workload for the kernel's ISA (cached by
// internal/bench's singleflight build cache). STRAIGHT images use the
// RE+ compiler at the paper's distance bound, matching the headline
// figures; the RISC-V kernels (SS, CG) share the RISC-V build.
func BuildImage(k Kernel, w workloads.Workload, iters int) (*program.Image, error) {
	m, err := cores.Lookup(string(k.Kind))
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	if m.ISA == cores.ISAStraight {
		return bench.BuildSTRAIGHT(w, iters, k.Cfg.MaxDistance, bench.ModeREP)
	}
	return bench.BuildRISCV(w, iters)
}

// newSim constructs the kernel's core over the image.
func newSim(k Kernel, im *program.Image, opts engine.Options) (cores.Sim, error) {
	m, err := cores.Lookup(string(k.Kind))
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	return m.New(k.Cfg, im, opts), nil
}

// RunResult is one measured simulation.
type RunResult struct {
	Stats   uarch.Stats
	Elapsed time.Duration
}

// KIPS returns simulated kilo-instructions retired per host second.
func (r RunResult) KIPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Retired) / 1000 / r.Elapsed.Seconds()
}

const runCycleCap = 2_000_000_000

// Options selects a measurement mode.
type Options struct {
	// NoIdleSkip disables the event-driven idle-cycle fast path, forcing
	// strict cycle-by-cycle stepping. Stats are bit-identical either way;
	// only wall-clock time changes.
	NoIdleSkip bool
}

// Run simulates the image to completion on the kernel's core with the
// tracer off (the non-traced fast path the benchmarks measure) and
// returns the counters plus wall-clock time.
func Run(k Kernel, im *program.Image) (RunResult, error) {
	return RunWith(k, im, Options{})
}

// RunWith is Run with an explicit measurement mode: one run of a fresh
// Runner, core construction included in the timing.
func RunWith(k Kernel, im *program.Image, o Options) (RunResult, error) {
	return NewRunner(k, o).Run(im)
}

// Runner multiplexes many runs through one reusable core: the first Run
// constructs it, later Runs recycle it with Core.Reset (a cores.Pool),
// so batched experiments pay construction cost once per configuration.
// Stats from a recycled core are bit-identical to a fresh core's (the
// Reset contract, DESIGN.md §12).
type Runner struct {
	k     Kernel
	o     Options
	cores cores.Pool
}

// NewRunner returns a batch runner for the kernel. No core is built
// until the first Run.
func NewRunner(k Kernel, o Options) *Runner {
	return &Runner{k: k, o: o}
}

// Run simulates the image to completion, reusing the core of the
// previous successful call when there was one.
func (r *Runner) Run(im *program.Image) (RunResult, error) {
	m, err := cores.Lookup(string(r.k.Kind))
	if err != nil {
		return RunResult{}, fmt.Errorf("perf: %w", err)
	}
	start := time.Now()
	c := r.cores.Get(m, r.k.Cfg, im)
	res, err := c.Run(engine.Options{MaxCycles: runCycleCap, NoIdleSkip: r.o.NoIdleSkip})
	if err != nil {
		return RunResult{}, err
	}
	r.cores.Put(m, r.k.Cfg, c)
	elapsed := time.Since(start)
	if err := res.Stats.Check(r.k.Cfg); err != nil {
		return RunResult{}, err
	}
	return RunResult{Stats: res.Stats, Elapsed: elapsed}, nil
}

// BenchIters is the Dhrystone iteration count the KIPS benchmarks and
// cmd/simbench run: long enough that steady state dominates (a few
// million simulated cycles), short enough for -benchtime=1x CI runs.
const BenchIters = 300

// BenchWorkload is the workload the KIPS benchmarks measure.
const BenchWorkload = workloads.Dhrystone

// MeasureKIPS builds the benchmark workload and runs it `count` times on
// the kernel, returning the best (highest) KIPS observed and the retired
// instruction count. Best-of-N is the standard noise reducer for
// throughput measurements on shared CI machines.
func MeasureKIPS(k Kernel, count int) (kips float64, retired uint64, err error) {
	return MeasureKIPSWith(k, count, Options{})
}

// MeasureKIPSWith is MeasureKIPS with an explicit measurement mode.
func MeasureKIPSWith(k Kernel, count int, o Options) (kips float64, retired uint64, err error) {
	return bestOf(k, count, func() *Runner { return NewRunner(k, o) })
}

// MeasureBatchKIPS measures throughput in batch mode: `count` runs of
// the benchmark workload multiplexed through one Runner-reused core
// (the first, core-constructing run is still timed). Best-of-N, like
// MeasureKIPS.
func MeasureBatchKIPS(k Kernel, count int) (kips float64, retired uint64, err error) {
	r := NewRunner(k, Options{})
	return bestOf(k, count, func() *Runner { return r })
}

// bestOf builds the benchmark workload and runs it count times, each on
// the runner next returns, keeping the highest KIPS.
func bestOf(k Kernel, count int, next func() *Runner) (kips float64, retired uint64, err error) {
	im, err := BuildImage(k, BenchWorkload, BenchIters)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < count; i++ {
		res, err := next().Run(im)
		if err != nil {
			return 0, 0, err
		}
		retired = res.Stats.Retired
		if v := res.KIPS(); v > kips {
			kips = v
		}
	}
	return kips, retired, nil
}
