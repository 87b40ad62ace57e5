package sampling

import (
	"runtime"
	"testing"

	"straight/internal/sasm"
	"straight/internal/uarch"
)

// heapProbe is a console writer that records the live heap each time
// the program prints. The fast-forward writes the output, so a print
// late in the program measures what the run holds after taking nearly
// every checkpoint.
type heapProbe struct{ peak uint64 }

func (h *heapProbe) Write(p []byte) (int, error) {
	h.peak = max(h.peak, liveHeap())
	return len(p), nil
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStorelessRunHeapBound: a sampled run with no store open holds no
// checkpoint encoding past its window's key derivation. The program is
// the ~28k-instruction loop with 1 MiB of zeroed data mapped, so every
// checkpoint's memory is mostly zero pages, and a 1024-instruction
// interval takes 28 checkpoints (short windows keep the test fast). A
// run that kept every encoding, and sized each one by its mapped rather
// than its non-zero pages, would hold over 28 MiB more at the final
// print.
func TestStorelessRunHeapBound(t *testing.T) {
	im, err := sasm.Assemble(loopSrc + "\n.data\nbig:\n    .space 1048576\n")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewTarget("straight", uarch.Straight2Way(), im)
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	probe := &heapProbe{}
	rep, err := Run(tgt, Plan{Interval: 1024, Warmup: 64, Window: 64}, Options{Workers: 1, Output: probe})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Windows); n < 20 || n > 50 {
		t.Fatalf("run took %d checkpoints, want 20–50", n)
	}
	// What legitimately stays live: the fast-forward machine's memory
	// and the worker's core, ~1 MiB of mapped pages each, plus the
	// queued checkpoints' memory copies.
	const bound = 16 << 20
	grew := int64(probe.peak) - int64(base)
	t.Logf("live heap grew %.1f MiB over %d checkpoints", float64(grew)/(1<<20), len(rep.Windows))
	if grew > bound {
		t.Errorf("live heap grew %d MiB during a store-less run of %d checkpoints, bound %d MiB",
			grew>>20, len(rep.Windows), bound>>20)
	}
}
