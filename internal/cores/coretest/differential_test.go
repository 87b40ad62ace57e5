// Differential matrix for the shared simulation engine (DESIGN.md §15):
// every core registry machine is run across workload × width × idle-skip on/off ×
// traced/untraced, and every observable — uarch.Stats, program output,
// exit code, the retirement stream, Kanata trace bytes, and error text
// (which embeds the failing cycle) — must be bit-identical across the
// harness axes. This is the proof obligation behind the engine
// extraction: the fast paths (idle skipping, trace-off short-circuits)
// are optimizations, never semantics.
package coretest_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"straight/internal/backend/straightbe"
	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/ir"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// testMachine is one core registry machine with the models the tests
// run it at.
type testMachine struct {
	cores.Machine
	// widths are the Table I models of the differential matrix.
	widths []uarch.Config
	// memBound keeps idle skipping engaged (skip and reset tests).
	memBound uarch.Config
}

// machineModels holds every registry machine's test models; a machine
// added to the registry fails testMachines until it has an entry here.
var machineModels = map[string]testMachine{
	"straight": {widths: []uarch.Config{uarch.Straight2Way(), uarch.Straight4Way()}, memBound: uarch.Straight4WayMemBound()},
	"ss":       {widths: []uarch.Config{uarch.SS2Way(), uarch.SS4Way()}, memBound: uarch.SS4WayMemBound()},
	"cg":       {widths: []uarch.Config{uarch.CG2Way(), uarch.CG4Way()}, memBound: uarch.CG4WayMemBound()},
}

// testMachines lists the registry's machines, in registry order.
func testMachines(t testing.TB) []testMachine {
	t.Helper()
	var ms []testMachine
	for _, m := range cores.All() {
		tm, ok := machineModels[m.Name]
		if !ok {
			t.Fatalf("registry machine %q has no test models", m.Name)
		}
		tm.Machine = m
		ms = append(ms, tm)
	}
	return ms
}

// machineByName looks one machine up for the cross-engine tests.
func machineByName(t testing.TB, name string) testMachine {
	t.Helper()
	for _, m := range testMachines(t) {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no registry machine %q", name)
	return testMachine{}
}

// build compiles the workload module for the machine's ISA; the config
// matters only for STRAIGHT (MaxDistance shapes the code).
func (m testMachine) build(t testing.TB, mod *ir.Module, cfg uarch.Config) *program.Image {
	t.Helper()
	if m.ISA == cores.ISAStraight {
		return buildSTRAIGHT(t, mod, straightbe.Options{MaxDistance: cfg.MaxDistance, RedundancyElim: true})
	}
	return buildRISCV(t, mod)
}

// observed is everything a variant run exposes to comparison.
type observed struct {
	stats    uarch.Stats
	output   string
	exitCode int32
	retires  uint64
	retHash  uint64
	trace    []byte // nil when the variant ran untraced
	errText  string // "" on success
}

// retireHasher folds the full retirement stream into an order-sensitive
// FNV-1a hash, so multi-hundred-thousand-instruction streams compare in
// O(1) memory while still detecting any field of any retirement
// changing.
type retireHasher struct {
	n uint64
	h uint64
}

func newRetireHasher() *retireHasher { return &retireHasher{h: 14695981039346656037} }

func (r *retireHasher) observe(ret uarch.Retirement) error {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], ret.Seq)
	binary.LittleEndian.PutUint32(buf[8:], ret.PC)
	if ret.HasValue {
		buf[12] = 1
	}
	binary.LittleEndian.PutUint32(buf[13:], ret.Value)
	binary.LittleEndian.PutUint16(buf[17:], uint16(ret.LogReg))
	if ret.IsStore {
		buf[19] = 1
	}
	binary.LittleEndian.PutUint32(buf[20:], ret.MemAddr)
	for _, b := range buf {
		r.h ^= uint64(b)
		r.h *= 1099511628211
	}
	r.n++
	return nil
}

// runVariant executes one cell of the matrix.
func runVariant(t testing.TB, e testMachine, cfg uarch.Config, im *program.Image, noSkip, traced bool, maxCycles int64) observed {
	t.Helper()
	rh := newRetireHasher()
	opts := engine.Options{
		MaxCycles:  maxCycles,
		NoIdleSkip: noSkip,
		RetireFn:   rh.observe,
	}
	var traceBuf bytes.Buffer
	if traced {
		opts.Tracer = ptrace.New(&traceBuf, ptrace.Config{})
	}
	res, err := e.New(cfg, im, opts).Run(opts)
	if traced {
		if cerr := opts.Tracer.Close(); cerr != nil {
			t.Fatalf("%s %s: closing tracer: %v", e.Name, cfg.Name, cerr)
		}
	}
	o := observed{retires: rh.n, retHash: rh.h}
	if traced {
		o.trace = traceBuf.Bytes()
	}
	if err != nil {
		o.errText = err.Error()
		return o
	}
	o.stats = res.Stats
	o.output = res.Output
	o.exitCode = res.ExitCode
	return o
}

// variantName names a matrix cell for failure messages.
func variantName(noSkip, traced bool) string {
	s := "skip"
	if noSkip {
		s = "noskip"
	}
	if traced {
		return s + "+trace"
	}
	return s
}

// compareObserved asserts got is bit-identical to want in every
// observable the harness axes must not perturb.
func compareObserved(t *testing.T, label string, want, got observed) {
	t.Helper()
	if got.errText != want.errText {
		t.Errorf("%s: error diverged:\n  baseline: %q\n  variant:  %q", label, want.errText, got.errText)
		return
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: stats diverged:\nbaseline:\n%s\nvariant:\n%s", label, want.stats.String(), got.stats.String())
	}
	if got.output != want.output {
		t.Errorf("%s: output diverged: baseline %q, variant %q", label, want.output, got.output)
	}
	if got.exitCode != want.exitCode {
		t.Errorf("%s: exit code diverged: baseline %d, variant %d", label, want.exitCode, got.exitCode)
	}
	if got.retires != want.retires || got.retHash != want.retHash {
		t.Errorf("%s: retirement stream diverged: baseline %d retires (hash %#x), variant %d (hash %#x)",
			label, want.retires, want.retHash, got.retires, got.retHash)
	}
}

// TestDifferentialMatrix is the cross-engine matrix: for every policy
// core, workload, and width, all four skip×trace harness variants must
// agree bit-for-bit, and the two traced variants must emit identical
// Kanata bytes.
func TestDifferentialMatrix(t *testing.T) {
	workloadIters := []struct {
		w     workloads.Workload
		iters int
	}{
		{workloads.MicroFib, 1},
		{workloads.MicroBranch, 2},
		{workloads.Dhrystone, 2},
	}
	for _, e := range testMachines(t) {
		e := e
		t.Run(e.Name+"core", func(t *testing.T) {
			for _, wi := range workloadIters {
				wi := wi
				t.Run(string(wi.w), func(t *testing.T) {
					t.Parallel()
					mod := buildIR(t, wi.w, wi.iters)
					for _, cfg := range e.widths {
						im := e.build(t, mod, cfg)
						base := runVariant(t, e, cfg, im, false, false, 200_000_000)
						if base.errText != "" {
							t.Fatalf("%s: baseline failed: %s", cfg.Name, base.errText)
						}
						if base.retires == 0 {
							t.Fatalf("%s: baseline retired nothing", cfg.Name)
						}
						var traces [][]byte
						for _, noSkip := range []bool{false, true} {
							for _, traced := range []bool{false, true} {
								if !noSkip && !traced {
									continue // that is the baseline
								}
								v := runVariant(t, e, cfg, im, noSkip, traced, 200_000_000)
								compareObserved(t, cfg.Name+"/"+variantName(noSkip, traced), base, v)
								if traced {
									traces = append(traces, v.trace)
								}
							}
						}
						if len(traces) != 2 {
							t.Fatalf("%s: expected 2 traced variants, got %d", cfg.Name, len(traces))
						}
						if len(traces[0]) == 0 {
							t.Errorf("%s: traced run produced no Kanata bytes", cfg.Name)
						}
						if !bytes.Equal(traces[0], traces[1]) {
							t.Errorf("%s: Kanata trace bytes differ between skip and noskip (%d vs %d bytes)",
								cfg.Name, len(traces[0]), len(traces[1]))
						}
					}
				})
			}
		})
	}
}

// TestDifferentialErrorCycles pins the failure observables: a run that
// dies on the cycle limit must fail at the identical cycle with the
// identical retired count — the error text embeds both — whether or not
// idle-cycle skipping is enabled, and the retirement stream up to the
// failure must match.
func TestDifferentialErrorCycles(t *testing.T) {
	mod := buildIR(t, workloads.Dhrystone, 2)
	for _, e := range testMachines(t) {
		e := e
		t.Run(e.Name+"core", func(t *testing.T) {
			cfg := e.widths[0]
			im := e.build(t, mod, cfg)
			base := runVariant(t, e, cfg, im, false, false, 2000)
			if base.errText == "" {
				t.Fatalf("%s: expected a cycle-limit error at 2000 cycles", cfg.Name)
			}
			for _, traced := range []bool{false, true} {
				v := runVariant(t, e, cfg, im, true, traced, 2000)
				label := cfg.Name + "/" + variantName(true, traced)
				if v.errText != base.errText {
					t.Errorf("%s: error text diverged:\n  baseline: %q\n  variant:  %q", label, base.errText, v.errText)
				}
				if v.retires != base.retires || v.retHash != base.retHash {
					t.Errorf("%s: pre-failure retirement stream diverged (%d vs %d retires)",
						label, base.retires, v.retires)
				}
			}
		})
	}
}

// TestCGBlockOneIsSS pins the degenerate end of the coarse-grain core:
// with 1-instruction blocks every µop is its own block, the issue gate
// never holds anything back, and cgcore must be bit-identical to sscore
// on every observable, traces included. This anchors the CG sweep to
// the SS machine the same way the golden corpus anchors SS itself.
func TestCGBlockOneIsSS(t *testing.T) {
	for _, wi := range []struct {
		w     workloads.Workload
		iters int
	}{
		{workloads.MicroBranch, 2},
		{workloads.Dhrystone, 2},
	} {
		wi := wi
		t.Run(string(wi.w), func(t *testing.T) {
			t.Parallel()
			mod := buildIR(t, wi.w, wi.iters)
			im := buildRISCV(t, mod)
			ssCfg := uarch.SS4Way()
			cgCfg := uarch.CG4Way()
			cgCfg.CGBlockSize = 1
			ss := machineByName(t, "ss")
			cg := machineByName(t, "cg")
			for _, traced := range []bool{false, true} {
				a := runVariant(t, ss, ssCfg, im, false, traced, 200_000_000)
				b := runVariant(t, cg, cgCfg, im, false, traced, 200_000_000)
				compareObserved(t, string(wi.w)+"/"+variantName(false, traced), a, b)
				if traced && !bytes.Equal(a.trace, b.trace) {
					t.Errorf("traced: Kanata bytes differ between SS and CG(block=1): %d vs %d bytes",
						len(a.trace), len(b.trace))
				}
			}
		})
	}
}

// TestCGGateRestrictsIssue is the non-degenerate direction: with real
// blocks the in-block issue gate must actually bite — CGGateHolds
// counts ready entries it held back — while the ungated machines never
// record a hold and the architectural output stays equal.
func TestCGGateRestrictsIssue(t *testing.T) {
	mod := buildIR(t, workloads.Dhrystone, 2)
	im := buildRISCV(t, mod)
	ss := machineByName(t, "ss")
	cg := machineByName(t, "cg")
	a := runVariant(t, ss, uarch.SS4Way(), im, false, false, 200_000_000)
	b := runVariant(t, cg, uarch.CG4Way(), im, false, false, 200_000_000)
	if a.errText != "" || b.errText != "" {
		t.Fatalf("runs failed: ss=%q cg=%q", a.errText, b.errText)
	}
	if a.output != b.output {
		t.Errorf("outputs differ: ss=%q cg=%q", a.output, b.output)
	}
	if a.stats.CGGateHolds != 0 {
		t.Errorf("SS recorded %d gate holds; the gate must be inert for ungated policies", a.stats.CGGateHolds)
	}
	if b.stats.CGGateHolds == 0 {
		t.Error("CG gate never bit: CGGateHolds is 0 with 8-instruction blocks")
	}
}
