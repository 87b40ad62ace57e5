package perf

import (
	"testing"

	"straight/internal/cores"
	"straight/internal/cores/engine"
)

// BenchmarkKernelKIPS measures end-to-end simulator throughput of each
// cycle core in simulated kilo-instructions retired per host second.
// One b.N iteration is one complete simulation of the benchmark
// workload, so -benchtime=1x runs each kernel exactly once (the CI mode;
// see .github/workflows/ci.yml and scripts/bench.sh).
func BenchmarkKernelKIPS(b *testing.B) {
	for _, k := range Kernels() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			im, err := BuildImage(k, BenchWorkload, BenchIters)
			if err != nil {
				b.Fatal(err)
			}
			var retired uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(k, im)
				if err != nil {
					b.Fatal(err)
				}
				retired = res.Stats.Retired
			}
			elapsed := b.Elapsed()
			if elapsed > 0 {
				kips := float64(retired) * float64(b.N) / 1000 / elapsed.Seconds()
				b.ReportMetric(kips, "KIPS")
				b.ReportMetric(float64(retired), "insns/run")
			}
		})
	}
}

// BenchmarkCoreNew times building one kernel's core over an image: the
// fixed cost every sweep point and straightd miss pays before its first
// simulated cycle. With -benchmem it reports the construction's bytes
// and allocations (budgets in TestCoreNewAllocs).
func BenchmarkCoreNew(b *testing.B) {
	for _, k := range AllKernels() {
		im, err := BuildImage(k, BenchWorkload, BenchIters)
		if err != nil {
			b.Fatal(err)
		}
		m, err := cores.Lookup(string(k.Kind))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.New(k.Cfg, im, engine.Options{})
			}
		})
	}
}
