// Command benchmark measures the simulator end to end and layer by
// layer on four workloads, from MiniC source to a stored, checked
// result. See README.md for the workloads and metrics.
//
// Usage:
//
//	go run . [-seed N] [-seconds S] [-trace 0|1] [-o results.jsonl]
//	go run . -workload NAME -seed N -seconds S -trace 0|1
//	go run . compare parent.jsonl change.jsonl
//
// Without -workload every workload runs, each in its own process. The
// last line of a workload's standard output is its result as one JSON
// object; -o appends the full result set, with its provenance, to a file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"straight/internal/bench"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	spans    string
	work     string
	quick    bool
}

// setupReps is how many times an untraced run sets up, so setup_s is a
// median rather than one sample.
const setupReps = 7

// record is one result set: what one workload process measured, and on
// what.
type record struct {
	Schema      int                `json:"schema"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     int                `json:"seconds"`
	Scale       string             `json:"scale"`
	Rounds      int                `json:"rounds"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Errors      []string           `json:"errors,omitempty"`
	StatsSHA256 string             `json:"stats_sha256"`
	Commit      string             `json:"commit"`
	Host        hostInfo           `json:"host"`
	Time        string             `json:"time"`
	Metrics     map[string]summary `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: every workload, one process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run (a traced run measures a quarter of it untraced, then a quarter traced)")
	flag.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from a traced run and write its spans")
	flag.StringVar(&o.out, "o", "", "append each result set, as one JSON line, to this file")
	flag.StringVar(&o.spans, "spans", "", "traced run's spans file (default: spans-WORKLOAD.json in the work directory)")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for scratch result stores and spans")
	flag.BoolVar(&o.quick, "quick", false, "tiny inputs and one round: a smoke test, not a measurement")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	rec, err := runOne(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := report(o, rec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", o.workload, err)
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own, one after
// another, so no workload inherits another's heap, caches or goroutines.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rc := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-work", o.work}
		if o.out != "" {
			args = append(args, "-o", o.out)
		}
		if o.spans != "" {
			ext := filepath.Ext(o.spans)
			args = append(args, "-spans", strings.TrimSuffix(o.spans, ext)+"-"+name+ext)
		}
		if o.quick {
			args = append(args, "-quick")
		}
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", name, err)
			rc = 1
		}
	}
	return rc
}

// runOne sets a workload up, checks it against the oracle and measures
// it.
func runOne(o options) (*record, error) {
	sc, scaleName := fullScale, "full"
	if o.quick {
		sc, scaleName = quickScale, "quick"
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{sc: sc, seed: o.seed, dir: dir, check: newChecker()}
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	reps := setupReps
	if o.trace == 1 {
		tr = newTracer()
		reps = 1
	}
	if o.quick {
		reps = 1
	}
	defer w.close()
	var setups []float64
	var b *builder
	var pts []bench.SweepPoint
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if b, pts, err = w.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := e.check.oracle(b, pts); err != nil {
		return nil, err
	}

	budget := time.Duration(o.seconds) * time.Second
	if o.quick {
		budget = 0 // one round
	}
	rec := &record{Schema: 1, Workload: o.workload, Seed: o.seed, Trace: tr != nil, Seconds: o.seconds,
		Scale: scaleName, Commit: commit(), Host: fingerprint(), Time: time.Now().UTC().Format(time.RFC3339)}
	var phases []phase
	if tr == nil {
		ph, err := measure(w, nil, budget)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		rec.Metrics = endToEndMetrics(setups, ph)
	} else {
		if p, ok := w.(preparer); ok {
			if err := p.prepare(tr); err != nil {
				return nil, fmt.Errorf("reference runs: %w", err)
			}
		}
		plain, err := measure(w, nil, budget/4)
		if err != nil {
			return nil, err
		}
		traced, err := measure(w, tr, budget/4)
		if err != nil {
			return nil, err
		}
		phases = append(phases, plain, traced)
		rec.Metrics = layerMetrics(tr, plain, traced)
		path := o.spans
		if path == "" {
			path = filepath.Join(o.work, "spans-"+o.workload+".json")
		}
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, ph := range phases {
		a, f := ph.ops()
		rec.Attempted += a
		rec.Failed += f
		rec.Rounds += len(ph.rounds)
		for _, r := range ph.rounds {
			if r.firstErr != nil && len(rec.Errors) < 5 {
				rec.Errors = append(rec.Errors, r.firstErr.Error())
			}
		}
	}
	rec.Correct = rec.Failed == 0
	rec.StatsSHA256 = e.check.statsHash()
	return rec, nil
}

// report prints a result set for people, then as the last line the
// result object, and appends the full record to the -o file.
func report(o options, rec *record) error {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, d := range defs {
		s, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-24s %14.6g %-8s q1 %-12.6g q3 %-12.6g n %d\n", d.name, s.Value, d.unit, s.Q1, s.Q3, s.N)
		final.Metrics[d.name] = value{s.Value, d.unit}
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "error:", e)
	}
	fmt.Printf("workload %s seed %d: %d ops in %d rounds, %d failed\n", rec.Workload, rec.Seed, rec.Attempted, rec.Rounds, rec.Failed)
	fmt.Printf("stats_sha256 %s\n", rec.StatsSHA256)
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
