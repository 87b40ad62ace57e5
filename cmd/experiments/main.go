// experiments reproduces every table and figure of the paper's
// evaluation (§VI) in one run and prints them in the order they appear
// in the paper. See EXPERIMENTS.md for the recorded paper-vs-measured
// comparison and the sweep-engine documentation.
//
// Usage:
//
//	experiments [-quick] [-dhry N] [-coremark N] [-j N] [-json PATH]
//	            [-store PATH] [-server URL]
//
// Sweep points within each section run concurrently on -j workers
// (default GOMAXPROCS); the printed tables are byte-identical at every
// worker count. -json writes a machine-readable record of every
// executed point (cycles, IPC, wall time) plus per-section timings and
// the estimated speedup over a serial run.
//
// -store PATH opens (or creates) the persistent content-addressed
// result store (DESIGN.md §14): points whose inputs are unchanged are
// served from it instead of re-simulated, and the tables and -json
// points are byte-identical to the run that computed them. -server URL
// delegates every sweep to a running straightd daemon instead of
// simulating locally. Ctrl-C cancels in-flight sweep points and flushes
// the store before exiting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"straight/internal/bench"
	"straight/internal/perf"
	"straight/internal/power"
	"straight/internal/profiling"
	"straight/internal/resultstore"
	"straight/internal/served"
	"straight/internal/uarch"
)

// report is the -json document.
type report struct {
	Scale struct {
		DhrystoneIters int `json:"dhrystone_iterations"`
		CoreMarkIters  int `json:"coremark_iterations"`
		MicroIters     int `json:"micro_iterations"`
	} `json:"scale"`
	Quick      bool                `json:"quick"`
	Workers    int                 `json:"workers"`
	Sections   []sectionTiming     `json:"sections"`
	Points     []bench.PointRecord `json:"points"`
	BuildCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"build_cache"`
	// Store summarizes result-store activity when -store is set. It is a
	// separate top-level section, so Points stays byte-identical between
	// a cold and a warm run.
	Store *storeReport `json:"store,omitempty"`
	// WallSecondsTotal is the measured harness wall time;
	// SerialSecondsEst sums every point's individual wall time, so
	// their ratio estimates the speedup over a -j 1 run. When workers
	// exceed the available cores, timesharing inflates per-point wall
	// times (and therefore the estimate); the wall_seconds_total of an
	// actual -j 1 run is the true serial baseline.
	WallSecondsTotal float64 `json:"wall_seconds_total"`
	SerialSecondsEst float64 `json:"serial_seconds_estimate"`
	Speedup          float64 `json:"speedup_vs_serial"`
}

type sectionTiming struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
}

// storeReport is the -json "store" section.
type storeReport struct {
	Path      string                       `json:"path"`
	Totals    bench.StoreCounts            `json:"totals"`
	BySection map[string]bench.StoreCounts `json:"by_section,omitempty"`
	File      resultstore.Stats            `json:"file"`
	// PutErrors counts computed results that could not be stored.
	PutErrors int64 `json:"put_errors,omitempty"`
}

var sections []sectionTiming

func main() {
	quick := flag.Bool("quick", false, "use the small test scale")
	dhry := flag.Int("dhry", 0, "override Dhrystone iterations")
	coremark := flag.Int("coremark", 0, "override CoreMark iterations")
	workers := flag.Int("j", 0, "concurrent sweep points (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write machine-readable results to PATH")
	tracePath := flag.String("trace", "", "write a Kanata pipeline trace of one sweep point to PATH")
	tracePoint := flag.String("trace-point", "Fig 11/coremark/RE+", "sweep point to trace (Section/Label)")
	traceWindow := flag.Int64("trace-window", 0, "trace time-series window in cycles (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	storePath := flag.String("store", "", "persistent result store path (skip re-simulating unchanged points)")
	serverURL := flag.String("server", "", "delegate sweeps to a straightd daemon at this base URL")
	requireWarm := flag.Bool("require-warm", false, "fail if any point had to be simulated (CI warm-store assertion; needs -store)")
	flag.Parse()

	if *serverURL != "" && *tracePath != "" {
		log.Fatal("-trace is local-only; it cannot be combined with -server")
	}
	if *serverURL != "" && *storePath != "" {
		log.Fatal("-server delegates to the daemon's store; drop -store")
	}
	if *requireWarm && *storePath == "" {
		log.Fatal("-require-warm needs -store")
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	check(err)

	sess := bench.NewSession()
	sess.Workers = *workers
	if *tracePath != "" {
		sess.Trace = &bench.TraceTarget{Point: *tracePoint, Path: *tracePath, Window: *traceWindow}
	}

	if *storePath != "" {
		st, err := resultstore.Open(*storePath, resultstore.Options{Salt: perf.VersionSalt()})
		check(err)
		storeHandle = st
		sess.SetStore(st)
		fs := st.Stats()
		fmt.Printf("result store: %s (%d entries, salt %#x)\n", *storePath, fs.Entries, st.Salt())
	}
	var daemon *served.Client
	if *serverURL != "" {
		daemon = &served.Client{BaseURL: *serverURL}
		check(daemon.Healthy())
		sess.Remote = daemon
		fmt.Printf("delegating sweeps to straightd at %s\n", *serverURL)
	}

	// First Ctrl-C / SIGTERM cancels in-flight sweep points (the sweep
	// fails with "simulation interrupted" and check() flushes the store);
	// a second one exits immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "experiments: interrupt — cancelling in-flight sweep points")
		sess.Interrupt()
		<-sigc
		closeStore()
		os.Exit(130)
	}()

	scale := bench.ScaleDefault
	if *quick {
		scale = bench.ScaleQuick
	}
	if *dhry > 0 {
		scale.DhrystoneIters = *dhry
	}
	if *coremark > 0 {
		scale.CoreMarkIters = *coremark
	}
	fmt.Printf("scale: dhrystone=%d iterations, coremark=%d iterations; workers=%d\n\n",
		scale.DhrystoneIters, scale.CoreMarkIters, sess.Parallelism())

	start := time.Now()

	section("Table I", func() {
		fmt.Print(bench.FormatTableI())
	})

	section("Fig 11: 4-way performance", func() {
		rows, err := sess.PerfComparison(scale, true, uarch.PredGshare)
		check(err)
		fmt.Print(bench.FormatPerf("Fig 11: STRAIGHT vs SS (4-way, gshare)", rows))
	})

	section("Fig 12: 2-way performance", func() {
		rows, err := sess.PerfComparison(scale, false, uarch.PredGshare)
		check(err)
		fmt.Print(bench.FormatPerf("Fig 12: STRAIGHT vs SS (2-way, gshare)", rows))
	})

	section("Extension: CG-OoO comparison", func() {
		rows, err := sess.CGComparison(scale, true)
		check(err)
		fmt.Print(bench.FormatCG("CG-OoO vs SS vs STRAIGHT (4-way, gshare)", rows))
		pts, err := sess.CGBlockSweep(scale)
		check(err)
		fmt.Print(bench.FormatCGBlocks(pts))
	})

	section("Fig 13: misprediction penalty", func() {
		rows, err := sess.MissPenalty(scale)
		check(err)
		fmt.Print(bench.FormatMissPenalty(rows))
	})

	section("Fig 14: TAGE predictor", func() {
		rows2, err := sess.PerfComparison(scale, false, uarch.PredTAGE)
		check(err)
		rows4, err := sess.PerfComparison(scale, true, uarch.PredTAGE)
		check(err)
		fmt.Print(bench.FormatPerf("Fig 14 (2-way, TAGE)", rows2))
		fmt.Print(bench.FormatPerf("Fig 14 (4-way, TAGE)", rows4))
	})

	section("Fig 15: instruction mix", func() {
		rows, err := sess.InstructionMix(scale)
		check(err)
		fmt.Print(bench.FormatMix(rows))
	})

	section("Fig 16: operand distance CDF", func() {
		cdfs, err := sess.DistanceCDF(scale)
		check(err)
		fmt.Print(bench.FormatCDF(cdfs))
	})

	section("Max-distance sensitivity (§VI-B)", func() {
		pts, err := sess.MaxDistSweep(scale)
		check(err)
		fmt.Print(bench.FormatMaxDist(pts))
	})

	section("Fig 17: RTL power analysis (activity-model substitution)", func() {
		rows, share, err := sess.PowerAnalysis(scale)
		check(err)
		fmt.Printf("SS rename / other-modules power = %.1f%% (paper: ~5.7%%)\n", 100*share)
		fmt.Print(power.FormatRows(rows))
	})

	if *quick {
		fmt.Println("(skipping ablations and window scaling at -quick; run without -quick for them)")
	} else {
		section("Ablations (design-choice knobs)", func() {
			rows, err := sess.Ablations(scale)
			check(err)
			fmt.Print(bench.FormatAblations(rows))
		})

		section("Extension: instruction-window scaling", func() {
			pts, err := sess.WindowScaling(scale)
			check(err)
			fmt.Print(bench.FormatWindowScaling(pts))
		})

		section("Extension: sampled vs full simulation (DESIGN.md §16)", func() {
			rows, err := sess.SampledVsFull(scale)
			check(err)
			fmt.Print(bench.FormatSampled(rows))
		})
	}

	total := time.Since(start)
	points := sess.Journal()
	var serial float64
	for _, p := range points {
		serial += p.WallSeconds
	}
	hits, misses := sess.BuildCacheStats()
	fmt.Printf("total: %.1fs wall for %d sweep points (%.1fs simulated serially, %.2fx; builds: %d, cache hits: %d)\n",
		total.Seconds(), len(points), serial, serial/total.Seconds(), misses, hits)

	var storeRep *storeReport
	if storeHandle != nil {
		totals, bySection := sess.StoreCounts()
		fs := storeHandle.Stats()
		storeRep = &storeReport{Path: *storePath, Totals: totals, BySection: bySection, File: fs}
		fmt.Printf("store: %d hits, %d misses, %d recomputed (%d entries, %d bytes live)\n",
			totals.Hits, totals.Misses, totals.Recomputes, fs.Entries, fs.LiveBytes)
		for _, name := range sectionOrder(bySection) {
			c := bySection[name]
			fmt.Printf("  %-40s %4d hits %4d recomputed\n", name, c.Hits, c.Recomputes)
		}
		var first error
		if storeRep.PutErrors, first = sess.PutErrors(); storeRep.PutErrors > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d results could not be stored (first: %v)\n", storeRep.PutErrors, first)
		}
	}
	if daemon != nil {
		if st, err := daemon.Stats(); err == nil {
			fmt.Printf("daemon: %d jobs served, %d points executed, %d coalesced, store %d hits / %d recomputed\n",
				st.JobsFinished, st.PointsExecuted, st.PointsCoalesced,
				st.StoreCounts.Hits, st.StoreCounts.Recomputes)
		}
		if n, first := daemon.PutErrors(); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d results could not be stored (first: %v)\n", n, first)
		}
	}

	if *tracePath != "" {
		if sess.TraceClaimed() {
			fmt.Printf("traced %q to %s (analyze with: straight-trace %s)\n", *tracePoint, *tracePath, *tracePath)
		} else {
			fmt.Printf("warning: trace point %q never ran; no trace written (check the Section/Label name in -json output)\n", *tracePoint)
		}
	}

	if *jsonPath != "" {
		var rep report
		rep.Scale.DhrystoneIters = scale.DhrystoneIters
		rep.Scale.CoreMarkIters = scale.CoreMarkIters
		rep.Scale.MicroIters = scale.MicroIters
		rep.Quick = *quick
		rep.Workers = sess.Parallelism()
		rep.Sections = sections
		rep.Points = points
		rep.BuildCache.Hits = hits
		rep.BuildCache.Misses = misses
		rep.Store = storeRep
		rep.WallSecondsTotal = total.Seconds()
		rep.SerialSecondsEst = serial
		rep.Speedup = serial / total.Seconds()
		data, err := json.MarshalIndent(&rep, "", "  ")
		check(err)
		data = append(data, '\n')
		check(os.WriteFile(*jsonPath, data, 0o644))
		fmt.Printf("wrote %d points to %s\n", len(points), *jsonPath)
	}

	check(stopProf())
	closeStore()

	if *requireWarm {
		if totals, _ := sess.StoreCounts(); totals.Recomputes != 0 {
			log.Fatalf("-require-warm: %d points were re-simulated (store was not warm)", totals.Recomputes)
		}
		fmt.Println("warm store confirmed: 0 points re-simulated")
	}
}

// storeHandle is the -store result store; check() and the signal
// handler flush it on every exit path so computed results survive
// failures and Ctrl-C.
var storeHandle *resultstore.Store

func closeStore() {
	if storeHandle != nil {
		if err := storeHandle.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: closing result store: %v\n", err)
		}
		storeHandle = nil
	}
}

func sectionOrder(m map[string]bench.StoreCounts) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func section(name string, f func()) {
	fmt.Printf("==== %s ====\n", name)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	sections = append(sections, sectionTiming{Name: name, WallSeconds: elapsed.Seconds()})
	fmt.Printf("(%.1fs)\n\n", elapsed.Seconds())
}

func check(err error) {
	if err != nil {
		closeStore()
		log.Fatal(err)
	}
}
