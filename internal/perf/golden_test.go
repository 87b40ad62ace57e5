package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"straight/internal/cores/engine"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current simulators")

// goldenEntry pins one (kernel, workload) simulation: every counter in
// uarch.Stats, the exit code, and an order-sensitive FNV-1a hash of the
// full retirement stream (PC, value, store-ness, address of every
// retired instruction). Any change to cycle-level behavior — scheduling
// order, stall attribution, recovery cost — shows up here.
type goldenEntry struct {
	Stats      uarch.Stats `json:"stats"`
	ExitCode   int32       `json:"exit_code"`
	RetireHash uint64      `json:"retire_hash"`
}

// goldenIters keeps the golden runs fast (a few hundred ms total) while
// still exercising recovery, LSQ disambiguation and both predictors.
var goldenIters = map[workloads.Workload]int{
	workloads.Dhrystone: 30,
	workloads.CoreMark:  1,
}

// fnvOffset and fnvPrime live in salt.go (VersionSalt shares them).

func fnvMix(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func retireHasher(h *uint64) uarch.RetireFn {
	return func(r uarch.Retirement) error {
		x := fnvMix(*h, uint64(r.Seq))
		x = fnvMix(x, uint64(r.PC))
		if r.HasValue {
			x = fnvMix(x, uint64(r.Value)+1)
		}
		x = fnvMix(x, uint64(uint16(r.LogReg)))
		if r.IsStore {
			x = fnvMix(x, uint64(r.MemAddr)+1)
		}
		*h = x
		return nil
	}
}

func runGolden(t *testing.T, k Kernel, w workloads.Workload) goldenEntry {
	t.Helper()
	im, err := BuildImage(k, w, goldenIters[w])
	if err != nil {
		t.Fatalf("build %s/%s: %v", k.Name, w, err)
	}
	hash := uint64(fnvOffset)
	opts := engine.Options{MaxCycles: runCycleCap, CrossValidate: true, RetireFn: retireHasher(&hash)}
	c, err := newSim(k, im, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(opts)
	if err != nil {
		t.Fatalf("run %s/%s: %v", k.Name, w, err)
	}
	entry := goldenEntry{Stats: res.Stats, ExitCode: res.ExitCode}
	if err := entry.Stats.Check(k.Cfg); err != nil {
		t.Fatalf("%s/%s: %v", k.Name, w, err)
	}
	entry.RetireHash = hash
	return entry
}

func goldenPath() string { return filepath.Join("testdata", "golden_stats.json") }

// TestGoldenStats runs both cores on both workloads at 2-way and 4-way
// and asserts the complete uarch.Stats, the exit code, and the
// retirement-stream hash are exactly equal to the checked-in golden
// values. This is the proof obligation of the allocation-free kernel
// rewrite: host-side data-structure changes must not shift a single
// reported cycle. Regenerate (only for intentional model changes) with:
//
//	go test ./internal/perf -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, k := range Kernels() {
		for _, w := range workloads.All {
			got[fmt.Sprintf("%s/%s", k.Name, w)] = runGolden(t, k, w)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", goldenPath(), len(got))
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, current run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from current run", key)
			continue
		}
		if g.ExitCode != w.ExitCode {
			t.Errorf("%s: exit code %d != golden %d", key, g.ExitCode, w.ExitCode)
		}
		if g.RetireHash != w.RetireHash {
			t.Errorf("%s: retirement stream hash %#x != golden %#x", key, g.RetireHash, w.RetireHash)
		}
		if !reflect.DeepEqual(g.Stats, w.Stats) {
			t.Errorf("%s: stats diverge from golden:\n%s", key, diffStats(w.Stats, g.Stats))
		}
	}
}

// TestGoldenStatsExtra pins the kernels added after the embedded golden
// corpus froze (ExtraKernels: the CG-OoO comparison core) against their
// own golden file. The file is deliberately NOT //go:embed-ded: adding
// or re-recording extra kernels must not move perf.VersionSalt, which
// fingerprints only golden_stats.json. Regenerate with:
//
//	go test ./internal/perf -run TestGoldenStatsExtra -update
func TestGoldenStatsExtra(t *testing.T) {
	path := filepath.Join("testdata", "golden_stats_extra.json")
	got := map[string]goldenEntry{}
	for _, k := range ExtraKernels() {
		for _, w := range workloads.All {
			got[fmt.Sprintf("%s/%s", k.Name, w)] = runGolden(t, k, w)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, current run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from current run", key)
			continue
		}
		if g.ExitCode != w.ExitCode {
			t.Errorf("%s: exit code %d != golden %d", key, g.ExitCode, w.ExitCode)
		}
		if g.RetireHash != w.RetireHash {
			t.Errorf("%s: retirement stream hash %#x != golden %#x", key, g.RetireHash, w.RetireHash)
		}
		if !reflect.DeepEqual(g.Stats, w.Stats) {
			t.Errorf("%s: stats diverge from golden:\n%s", key, diffStats(w.Stats, g.Stats))
		}
	}
}

// diffStats renders a per-field diff of two Stats values so a golden
// failure names the exact counters that moved.
func diffStats(want, got uarch.Stats) string {
	wv := reflect.ValueOf(want)
	gv := reflect.ValueOf(got)
	ty := wv.Type()
	out := ""
	for i := 0; i < ty.NumField(); i++ {
		w, g := wv.Field(i), gv.Field(i)
		if !reflect.DeepEqual(w.Interface(), g.Interface()) {
			out += fmt.Sprintf("  %s: golden %v, got %v\n", ty.Field(i).Name, w.Interface(), g.Interface())
		}
	}
	if out == "" {
		out = "  (no field differences)\n"
	}
	return out
}
