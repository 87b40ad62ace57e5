// Integration tests live in an external test package: the cores import
// ptrace, so importing them (via sasm/rasm/bench) from package ptrace
// would cycle.
package ptrace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"straight/internal/bench"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/ptrace"
	"straight/internal/rasm"
	"straight/internal/sasm"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// straightProg is the paper's Fibonacci idiom: pure straight-line code,
// so the trace is fully deterministic.
const straightProg = `
main:
    ADDi [0], 0
    ADDi [0], 1
    ADD  [1], [2]
    ADD  [1], [2]
    ADD  [1], [2]
    ADDi [0], 0
    SYS  exit, [1]
`

// riscvProg is a short counted loop: the backward branch mispredicts at
// least once, so squash records appear in the golden trace.
const riscvProg = `
main:
    addi t0, zero, 0
    addi t1, zero, 3
loop:
    addi t0, t0, 1
    blt  t0, t1, loop
    addi a0, zero, 0
    addi a7, zero, 0
    ecall
`

// goldenCheck byte-compares a generated trace against its testdata file,
// and verifies the bytes parse as Kanata 0004.
func goldenCheck(t *testing.T, name string, got []byte) {
	t.Helper()
	trace, err := ptrace.Parse(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("generated trace does not parse: %v\n%s", err, got)
	}
	if trace.Version != "0004" {
		t.Fatalf("trace version = %q, want 0004", trace.Version)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/ptrace/ -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: trace diverged from golden file; inspect with straight-trace, then "+
			"regenerate with -update if the change is intended\n got %d bytes, want %d",
			name, len(got), len(want))
	}
}

func TestGoldenStraightTrace(t *testing.T) {
	im, err := sasm.Assemble(straightProg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := ptrace.New(&buf, ptrace.Config{})
	opts := engine.Options{MaxCycles: 100_000, Tracer: tr, CrossValidate: true}
	if _, err := straightcore.New(uarch.Straight4Way(), im, opts).Run(opts); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "straight-fib.kanata", buf.Bytes())
}

func TestGoldenSSTrace(t *testing.T) {
	im, err := rasm.Assemble(riscvProg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := ptrace.New(&buf, ptrace.Config{})
	opts := engine.Options{MaxCycles: 100_000, Tracer: tr, CrossValidate: true}
	if _, err := sscore.New(uarch.SS4Way(), im, opts).Run(opts); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "ss-loop.kanata", buf.Bytes())
}

// TestStallReconciliation is the acceptance check of the stall taxonomy:
// every tracer stall total must equal the corresponding uarch.Stats
// counter of the same run, on both cores, on a branchy workload.
func TestStallReconciliation(t *testing.T) {
	type run struct {
		name   string
		series *ptrace.Series
		trace  *ptrace.Trace
		stats  uarch.Stats
	}
	var runs []run

	{
		im, err := bench.BuildSTRAIGHT(workloads.MicroBranch, 1, 0, bench.ModeREP)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr := ptrace.New(&buf, ptrace.Config{Window: 500})
		res, err := bench.Simulate(bench.CoreStraight, uarch.Straight4Way(), im, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		trace, err := ptrace.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{"straight", tr.Series(), trace, res.Stats})
	}
	{
		im, err := bench.BuildRISCV(workloads.MicroBranch, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr := ptrace.New(&buf, ptrace.Config{Window: 500})
		res, err := bench.Simulate(bench.CoreSS, uarch.SS4Way(), im, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		trace, err := ptrace.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{"ss", tr.Series(), trace, res.Stats})
	}

	for _, r := range runs {
		s, st := r.series, r.stats
		if s.Cycles != st.Cycles {
			t.Errorf("%s: series cycles %d != stats cycles %d", r.name, s.Cycles, st.Cycles)
		}
		if s.Retired != st.Retired {
			t.Errorf("%s: series retired %d != stats retired %d", r.name, s.Retired, st.Retired)
		}
		if s.Fetched != st.FetchedInsts {
			t.Errorf("%s: series fetched %d != stats fetched %d", r.name, s.Fetched, st.FetchedInsts)
		}
		want := map[string]int64{
			"rob-full":    st.StallROBFull,
			"iq-full":     st.StallIQFull,
			"lsq-full":    st.StallLSQFull,
			"free-list":   st.StallFreeList,
			"front-end":   st.StallFrontEnd,
			"spadd-limit": st.StallSPAddLimit,
			"recovery":    st.RecoveryStall,
		}
		for cause, n := range want {
			if got := s.StallTotals[cause]; got != n {
				t.Errorf("%s: stall %q: tracer=%d stats=%d", r.name, cause, got, n)
			}
		}

		// The parsed trace agrees with the run too: every stats-retired
		// instruction has a retire record.
		var retired uint64
		for _, in := range r.trace.Insts {
			if in.Retired {
				retired++
			}
		}
		if retired != st.Retired {
			t.Errorf("%s: trace retired %d != stats retired %d", r.name, retired, st.Retired)
		}
		if r.trace.Version != "0004" {
			t.Errorf("%s: version %q", r.name, r.trace.Version)
		}
	}
}

// TestTracedRunMatchesUntraced proves tracing is purely observational:
// identical cycle counts and stats with and without a tracer.
func TestTracedRunMatchesUntraced(t *testing.T) {
	im, err := bench.BuildSTRAIGHT(workloads.MicroFib, 1, 0, bench.ModeREP)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := bench.Simulate(bench.CoreStraight, uarch.Straight4Way(), im, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := ptrace.New(&buf, ptrace.Config{})
	traced, err := bench.Simulate(bench.CoreStraight, uarch.Straight4Way(), im, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if plain.Stats != traced.Stats {
		t.Errorf("stats diverge under tracing:\nplain:  %+v\ntraced: %+v", plain.Stats, traced.Stats)
	}
}
