package core

import (
	"testing"

	"straight/internal/workloads"
)

// BenchmarkCompile times the whole MiniC-to-image pipeline (CompileC:
// parse, irgen, optimize, backend, assemble, and for STRAIGHT the
// post-compile verification) per ISA, compiler mode and workload, at
// the iteration counts of bench.ScaleDefault and the paper's distance
// bound of 31. Run it with -benchmem: a build's allocations are most of
// a cold sweep point's set-up.
func BenchmarkCompile(b *testing.B) {
	builds := []struct {
		name   string
		target Target
		opts   CompileOptions
	}{
		{"straight-RAW", TargetStraight, CompileOptions{MaxDistance: 31}},
		{"straight-RE+", TargetStraight, CompileOptions{MaxDistance: 31, RedundancyElim: true}},
		{"riscv", TargetRISCV, CompileOptions{}},
	}
	progs := []struct {
		w     workloads.Workload
		iters int
	}{{workloads.Dhrystone, 200}, {workloads.CoreMark, 1}, {workloads.MicroStream, 2}}
	for _, bd := range builds {
		for _, pg := range progs {
			src, err := workloads.Source(pg.w, pg.iters)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(bd.name+"/"+string(pg.w), func(b *testing.B) {
				for range b.N {
					if _, err := CompileC(src, bd.target, bd.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
