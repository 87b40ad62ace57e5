package perf

import (
	"strings"
	"testing"

	"straight/internal/bench"
	"straight/internal/cores"
	"straight/internal/sampling"
	"straight/internal/workloads"
)

// TestRegistryCoversKernels: every kernel names a registry machine, and
// every registry machine has at least one golden-pinned kernel.
func TestRegistryCoversKernels(t *testing.T) {
	covered := map[string]bool{}
	for _, k := range AllKernels() {
		if _, err := cores.Lookup(string(k.Kind)); err != nil {
			t.Errorf("kernel %s: %v", k.Name, err)
		}
		covered[string(k.Kind)] = true
	}
	for _, name := range cores.Names() {
		if !covered[name] {
			t.Errorf("registry machine %q has no kernel (and so no goldens)", name)
		}
	}
}

// TestRegistryMachinesRun runs MicroFib on every registry machine
// through both consumers of the registry, the sweep executor and the
// sampler, and requires them to agree on the program.
func TestRegistryMachinesRun(t *testing.T) {
	for _, m := range cores.All() {
		t.Run(m.Name, func(t *testing.T) {
			var k Kernel
			for _, k = range AllKernels() {
				if string(k.Kind) == m.Name {
					break
				}
			}
			res, err := bench.ExecutePoint(bench.SweepPoint{Section: "registry", Label: m.Name,
				Workload: workloads.MicroFib, Core: k.Kind, Iters: 1,
				Mode: bench.ModeREP, MaxDist: k.Cfg.MaxDistance, Config: k.Cfg})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats == nil || res.Retired == 0 {
				t.Fatalf("ExecutePoint: no cycle-core result: %+v", res)
			}
			im, err := BuildImage(k, workloads.MicroFib, 1)
			if err != nil {
				t.Fatal(err)
			}
			tgt, err := sampling.NewTarget(m.Name, k.Cfg, im)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			rep, err := sampling.Run(tgt, sampling.Plan{Interval: 2048, Warmup: 512, Window: 2048},
				sampling.Options{Workers: 1, Output: &out})
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalInsts != res.Retired || out.String() != res.Output {
				t.Errorf("sampled run (%d insts, output %q) disagrees with the detailed run (%d insts, output %q)",
					rep.TotalInsts, out.String(), res.Retired, res.Output)
			}
		})
	}
}

// TestUnknownCoreRejected: every layer that takes a core name rejects
// an unknown one with an error listing the valid names.
func TestUnknownCoreRejected(t *testing.T) {
	k := Kernel{Name: "vliw-4way", Kind: "vliw", Cfg: Kernels()[0].Cfg}
	_, benchErr := bench.ExecutePoint(bench.SweepPoint{Label: "vliw", Workload: workloads.MicroFib, Core: k.Kind, Iters: 1})
	_, samplingErr := sampling.NewTarget(string(k.Kind), k.Cfg, nil)
	_, perfErr := Run(k, nil)
	if _, err := KernelByName(k.Name); err == nil || !strings.Contains(err.Error(), Kernels()[0].Name) {
		t.Errorf("KernelByName(%q): error %v does not list the valid kernels", k.Name, err)
	}
	for layer, err := range map[string]error{"bench": benchErr, "sampling": samplingErr, "perf": perfErr} {
		if err == nil {
			t.Errorf("%s accepted an unknown core", layer)
			continue
		}
		for _, name := range append(cores.Names(), "vliw") {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not mention %q", layer, err, name)
			}
		}
	}
}
