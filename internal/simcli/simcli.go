// Package simcli is the implementation shared by the cycle-simulator
// commands cmd/straight-sim and cmd/riscv-sim: assemble one program for
// the machine's ISA, run it on the registry core, stream the program's
// output to stdout, report the statistics on stderr, and exit with the
// program's exit code.
//
// -sample switches to sampled simulation (DESIGN.md §16): a functional
// fast-forward with periodic checkpoints, detailed simulation of warmed
// sample windows, and a reconstructed whole-program estimate with
// confidence intervals, printed to stderr in place of the full pipeline
// statistics. Program output and the exit code are exact (the
// fast-forward executes every instruction).
package simcli

import (
	"flag"
	"fmt"
	"os"

	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/profiling"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/rasm"
	"straight/internal/sampling"
	"straight/internal/sasm"
	"straight/internal/uarch"
)

// Command describes one simulator binary.
type Command struct {
	// Name prefixes usage and error messages.
	Name string
	// Core is the core registry name the binary simulates.
	Core string
	// FourWay and TwoWay are the Table I models -config selects.
	FourWay, TwoWay func() uarch.Config
	// NoPenalty offers -nopenalty (idealized misprediction recovery).
	NoPenalty bool
}

// Main parses the command line and runs the simulation; it never
// returns.
func Main(c Command) {
	config := flag.String("config", "4way", "model: 2way or 4way (Table I)")
	tage := flag.Bool("tage", false, "use the TAGE predictor instead of gshare")
	validate := flag.Bool("validate", false, "cross-validate against the functional emulator")
	var nopenalty bool
	if c.NoPenalty {
		flag.BoolVar(&nopenalty, "nopenalty", false, "idealize misprediction recovery (Fig 13)")
	}
	sample := flag.Bool("sample", false, "sampled simulation: fast-forward + measured sample windows")
	sampleInterval := flag.Uint64("sample-interval", 0, "override the interval plan's checkpoint spacing")
	sampleWarmup := flag.Uint64("sample-warmup", 0, "override the interval plan's detailed warmup length")
	sampleWindow := flag.Uint64("sample-window", 0, "override the interval plan's measured window length")
	sampleWarmMem := flag.Uint64("sample-warmmem", 0, "override the interval plan's functional-warming burst length")
	tracePath := flag.String("trace", "", "write a Kanata pipeline trace to this path (plus <path>.series.json)")
	traceWindow := flag.Int64("trace-window", 0, "trace time-series window in cycles (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] file.s\n", c.Name)
		os.Exit(2)
	}
	m, err := cores.Lookup(c.Core)
	if err != nil {
		c.fatal(err)
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		c.fatal(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		c.fatal(err)
	}
	var im *program.Image
	if m.ISA == cores.ISAStraight {
		im, err = sasm.Assemble(string(src))
	} else {
		im, err = rasm.Assemble(string(src))
	}
	if err != nil {
		c.fatal(err)
	}
	cfg := c.FourWay()
	if *config == "2way" {
		cfg = c.TwoWay()
	}
	if *tage {
		cfg.Predictor = uarch.PredTAGE
	}
	cfg.ZeroMispredictPenalty = nopenalty
	if *sample {
		if *tracePath != "" || *validate {
			c.fatal(fmt.Errorf("-sample cannot be combined with -trace or -validate"))
		}
		plan := sampling.DefaultPlan()
		overridePlan(&plan, *sampleInterval, *sampleWarmup, *sampleWindow, *sampleWarmMem)
		tgt, err := sampling.NewTarget(c.Core, cfg, im)
		if err != nil {
			c.fatal(err)
		}
		rep, err := sampling.Run(tgt, plan, sampling.Options{Output: os.Stdout})
		if err != nil {
			c.fatal(err)
		}
		if err := stopProf(); err != nil {
			c.fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\n--- %s (sampled) ---\n%s", cfg.Name, rep.String())
		os.Exit(int(rep.ExitCode))
	}
	opts := engine.Options{CrossValidate: *validate, Output: os.Stdout}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			c.fatal(err)
		}
		opts.Tracer = ptrace.New(traceFile, ptrace.Config{Window: *traceWindow})
	}
	res, err := m.New(cfg, im, opts).Run(opts)
	if err != nil {
		c.fatal(err)
	}
	if err := stopProf(); err != nil {
		c.fatal(err)
	}
	if opts.Tracer != nil {
		if err := finishTrace(opts.Tracer, traceFile, *tracePath); err != nil {
			c.fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (series: %s)\n", *tracePath, ptrace.SeriesPath(*tracePath))
	}
	fmt.Fprintf(os.Stderr, "\n--- %s ---\n%s", cfg.Name, res.Stats.String())
	os.Exit(int(res.ExitCode))
}

func finishTrace(tr *ptrace.Tracer, f *os.File, path string) error {
	if err := tr.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return ptrace.WriteSeriesFile(ptrace.SeriesPath(path), tr.Series())
}

// overridePlan applies the non-zero -sample-* flag overrides to the
// default interval plan.
func overridePlan(p *sampling.Plan, interval, warmup, window, warmMem uint64) {
	if interval > 0 {
		p.Interval = interval
	}
	if warmup > 0 {
		p.Warmup = warmup
	}
	if window > 0 {
		p.Window = window
	}
	if warmMem > 0 {
		p.WarmMem = warmMem
	}
}

func (c Command) fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
	os.Exit(1)
}
