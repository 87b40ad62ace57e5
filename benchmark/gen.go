package main

import (
	"fmt"
	"math/rand/v2"

	"straight/internal/bench"
	"straight/internal/perf"
	"straight/internal/sampling"
	"straight/internal/workloads"
)

// scale sizes the generated inputs. The iteration bands are narrow on
// purpose: the seed varies every input, but the per-operation latency
// medians must stay comparable from one seed to the next.
type scale struct {
	dhryLo, dhryHi  int // Dhrystone iterations of a mix point, drawn per point
	coreMark, micro int // CoreMark and microkernel iterations of a mix point
	longLo, longHi  int // dhrystone-long iterations of a detail-long run, drawn per kernel
	sampledIters    int // dhrystone-long iterations of a sampled-long run
	daemonBatch     int // jobs each daemon-warm client submits per round
}

var (
	fullScale  = scale{dhryLo: 190, dhryHi: 210, coreMark: 1, micro: 2, longLo: 145, longHi: 155, sampledIters: 300, daemonBatch: 50}
	quickScale = scale{dhryLo: 25, dhryHi: 35, coreMark: 1, micro: 1, longLo: 8, longHi: 12, sampledIters: 60, daemonBatch: 2}
)

// The 30-point mix of sweep-cold and daemon-warm: every paper workload
// and microkernel on every width of the three cores the figures compare.
// Workloads are listed from the most to the least simulation work, the
// order a sweep submits them in: longest first keeps both workers busy
// until the sweep's end.
var (
	mixWorkloads = []workloads.Workload{workloads.Dhrystone, workloads.CoreMark,
		workloads.MicroSieve, workloads.MicroBranch, workloads.MicroPointer, workloads.MicroFib}
	mixKernels     = []string{"straight-4way", "straight-2way", "ss-4way", "ss-2way", "cg-4way"}
	sampledKernels = []string{"straight-4way", "ss-4way", "cg-4way"}
	// straight-4way-membound is the one kernel dominated by idle-skip.
	longKernels = []string{"straight-4way", "ss-4way", "cg-4way", "straight-4way-membound"}
)

// Each generator draws from its own stream of the seed, so adding a
// draw to one workload never changes another workload's inputs.
const (
	streamMix = iota + 1
	streamSampled
	streamLong
	streamClient // + client index
)

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// newPoint builds the sweep point that runs workload w on the named
// kernel. STRAIGHT points use the RE+ compiler at the kernel's distance
// bound, as the paper's headline figures do.
func newPoint(section, kernel string, w workloads.Workload, iters int) bench.SweepPoint {
	k, err := perf.KernelByName(kernel)
	if err != nil {
		panic(err) // kernel names are the constants above
	}
	label := fmt.Sprintf("%s/%s@%d", kernel, w, iters)
	switch k.Kind {
	case perf.KindStraight:
		return bench.StraightPoint(section, label, w, iters, bench.ModeREP, k.Cfg)
	case perf.KindCG:
		return bench.CGPoint(section, label, w, iters, k.Cfg)
	default:
		return bench.SSPoint(section, label, w, iters, k.Cfg)
	}
}

// mixPoints returns the seeded 30-point mix in a fixed order. The order
// decides which points run side by side on the two workers, and so
// their latencies; only the Dhrystone iteration counts are seeded.
func mixPoints(seed uint64, sc scale, section string) []bench.SweepPoint {
	r := rng(seed, streamMix)
	var pts []bench.SweepPoint
	for _, w := range mixWorkloads {
		for _, k := range mixKernels {
			iters := sc.micro
			switch w {
			case workloads.Dhrystone:
				iters = sc.dhryLo + r.IntN(sc.dhryHi-sc.dhryLo+1)
			case workloads.CoreMark:
				iters = sc.coreMark
			}
			pts = append(pts, newPoint(section, k, w, iters))
		}
	}
	return pts
}

// longPoints returns detail-long's four runs, one per kernel, each with
// its own seeded iteration count.
func longPoints(seed uint64, sc scale) []bench.SweepPoint {
	r := rng(seed, streamLong)
	pts := make([]bench.SweepPoint, len(longKernels))
	for i, k := range longKernels {
		pts[i] = newPoint("detail-long", k, workloads.DhrystoneLong, sc.longLo+r.IntN(sc.longHi-sc.longLo+1))
	}
	return pts
}

// sampledRun is one sampled-long operation: a kernel and the SMARTS
// phase offset of its plan.
type sampledRun struct {
	point bench.SweepPoint // the equivalent full detailed run
	plan  sampling.Plan
}

// sampledRuns draws one plan offset per kernel. Offsets stay within the
// first eighth of an interval so that every seed measures the same
// number of windows: the seed moves where the windows fall, not how much
// a run simulates.
func sampledRuns(seed uint64, sc scale) []sampledRun {
	r := rng(seed, streamSampled)
	runs := make([]sampledRun, len(sampledKernels))
	for i, k := range sampledKernels {
		plan := sampling.DefaultPlan()
		plan.Offset = r.Uint64N(plan.Interval / 8)
		runs[i] = sampledRun{point: newPoint("sampled-long", k, workloads.DhrystoneLong, sc.sampledIters), plan: plan}
	}
	return runs
}
