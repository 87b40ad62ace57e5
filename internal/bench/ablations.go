package bench

import (
	"fmt"
	"strings"

	"straight/internal/uarch"
	"straight/internal/workloads"
)

// Ablation experiments for the design choices DESIGN.md calls out, plus
// the window-scalability extension the paper motivates ("STRAIGHT
// enables the instruction window to be further increased", §III-B).

// AblationRow reports one knob's effect on both cores (CoreMark cycles).
type AblationRow struct {
	Knob           string
	SSCycles       int64
	StraightCycles int64
}

// Ablations runs the knob sweep: memory-dependence policy, SPADD group
// limit and predictor on CoreMark; the prefetcher knob on the
// L1-exceeding micro-stream workload (CoreMark is L1-resident).
func (s *Session) Ablations(sc Scale) ([]AblationRow, error) {
	n := iters(sc, workloads.CoreMark)
	knobs := []struct {
		name  string
		w     workloads.Workload
		iters int
		mod   func(*uarch.Config)
	}{
		{"baseline", workloads.CoreMark, n, func(c *uarch.Config) {}},
		{"memdep-speculate", workloads.CoreMark, n, func(c *uarch.Config) { c.MemDep = uarch.MemDepAlwaysSpeculate }},
		{"memdep-wait", workloads.CoreMark, n, func(c *uarch.Config) { c.MemDep = uarch.MemDepAlwaysWait }},
		{"spadd-per-group-2", workloads.CoreMark, n, func(c *uarch.Config) { c.SPAddPerGroup = 2 }},
		{"tage", workloads.CoreMark, n, func(c *uarch.Config) { c.Predictor = uarch.PredTAGE }},
		{"stream-baseline", workloads.MicroStream, 1, func(c *uarch.Config) {}},
		{"stream-no-prefetch", workloads.MicroStream, 1, func(c *uarch.Config) { c.NoPrefetch = true }},
	}

	var points []SweepPoint
	for _, k := range knobs {
		ssCfg, stCfg := uarch.SS4Way(), uarch.Straight4Way()
		k.mod(&ssCfg)
		k.mod(&stCfg)
		points = append(points,
			SSPoint("Ablations", k.name+"/SS", k.w, k.iters, ssCfg),
			StraightPoint("Ablations", k.name+"/RE+", k.w, k.iters, ModeREP, stCfg),
		)
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, k := range knobs {
		rows = append(rows, AblationRow{
			Knob:           k.name,
			SSCycles:       results[2*i].Cycles,
			StraightCycles: results[2*i+1].Cycles,
		})
	}
	return rows, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations (CoreMark, 4-way models, cycles; lower is better)\n")
	fmt.Fprintf(&b, "%-20s %12s %14s\n", "knob", "SS", "STRAIGHT RE+")
	base := rows[0]
	for _, r := range rows {
		if strings.HasSuffix(r.Knob, "baseline") {
			base = r
		}
		fmt.Fprintf(&b, "%-20s %12d %14d", r.Knob, r.SSCycles, r.StraightCycles)
		if !strings.HasSuffix(r.Knob, "baseline") {
			fmt.Fprintf(&b, "   (%+.1f%% / %+.1f%%)",
				100*(float64(r.SSCycles)/float64(base.SSCycles)-1),
				100*(float64(r.StraightCycles)/float64(base.StraightCycles)-1))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WindowPoint is one instruction-window size in the scalability sweep.
type WindowPoint struct {
	ROB            int
	SSCycles       int64
	StraightCycles int64
}

// WindowScaling sweeps the instruction-window (ROB) size on CoreMark for
// both cores, growing the SS physical register file and the STRAIGHT
// MAX_RP with it. The paper argues STRAIGHT's one-read recovery lets the
// window grow without the ROB-walk penalty growing with it (§III-B).
func (s *Session) WindowScaling(sc Scale) ([]WindowPoint, error) {
	n := iters(sc, workloads.CoreMark)
	robs := []int{64, 128, 224, 448}
	var points []SweepPoint
	for _, rob := range robs {
		ssCfg := uarch.SS4Way()
		ssCfg.ROBSize = rob
		ssCfg.RegFileSize = 32 + rob // enough physical registers
		stCfg := uarch.Straight4Way()
		stCfg.ROBSize = rob // MAX_RP = 31 + rob follows automatically
		label := fmt.Sprintf("rob-%d", rob)
		points = append(points,
			SSPoint("Window scaling", label+"/SS", workloads.CoreMark, n, ssCfg),
			StraightPoint("Window scaling", label+"/RE+", workloads.CoreMark, n, ModeREP, stCfg),
		)
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	var pts []WindowPoint
	for i, rob := range robs {
		pts = append(pts, WindowPoint{
			ROB:            rob,
			SSCycles:       results[2*i].Cycles,
			StraightCycles: results[2*i+1].Cycles,
		})
	}
	return pts, nil
}

// FormatWindowScaling renders the sweep.
func FormatWindowScaling(pts []WindowPoint) string {
	var b strings.Builder
	b.WriteString("Instruction-window scaling (CoreMark, 4-way, cycles)\n")
	fmt.Fprintf(&b, "%6s %12s %14s %10s\n", "ROB", "SS", "STRAIGHT RE+", "ST/SS")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6d %12d %14d %10.3f\n", p.ROB, p.SSCycles, p.StraightCycles,
			float64(p.SSCycles)/float64(p.StraightCycles))
	}
	return b.String()
}
