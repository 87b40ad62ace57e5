package core

import (
	"runtime"
	"testing"

	"straight/internal/workloads"
)

// TestCompileAllocs holds one CompileC of Dhrystone (the iteration count
// of bench.ScaleDefault) to a budget of bytes and allocations per ISA:
// the measured cost plus about 10%. Compiling is most of a cold sweep
// point's set-up; the lexer's token slice, map-keyed IR sets, unsized
// output buffers and per-line assembler slices cost about twice these
// figures.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	src, err := workloads.Source(workloads.Dhrystone, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		target  Target
		opts    CompileOptions
		allocs  float64
		kbLimit uint64
	}{
		{"straight-RE+", TargetStraight, CompileOptions{MaxDistance: 31, RedundancyElim: true}, 15_300, 1_230},
		{"riscv", TargetRISCV, CompileOptions{}, 11_200, 860},
	} {
		compile := func() {
			if _, err := CompileC(src, tc.target, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(5, compile); n > tc.allocs {
			t.Errorf("%s: CompileC makes %.0f allocations, want <= %.0f", tc.name, n, tc.allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		compile()
		runtime.ReadMemStats(&after)
		if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb > tc.kbLimit {
			t.Errorf("%s: CompileC allocates %d KB, want <= %d", tc.name, kb, tc.kbLimit)
		}
	}
}
