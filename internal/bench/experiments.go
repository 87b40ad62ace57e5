package bench

import (
	"fmt"
	"strings"

	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/isa/riscv"
	"straight/internal/isa/straight"
	"straight/internal/power"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// Every experiment below builds its figure as a flat list of
// SweepPoints, submits them to the session (Session.Run), and
// assembles rows from the in-order results — so `-j N` parallelism
// never changes a table.

// ---- Fig 11 / Fig 12: performance comparison ----

// PerfRow is one workload's relative-performance bars (Fig 11/12): SS is
// 1.0 by construction; RAW and REP are SS-cycles / STRAIGHT-cycles.
type PerfRow struct {
	Workload  workloads.Workload
	SSCycles  int64
	RAWCycles int64
	REPCycles int64
}

// RelRAW returns STRAIGHT-RAW performance relative to SS.
func (r PerfRow) RelRAW() float64 { return float64(r.SSCycles) / float64(r.RAWCycles) }

// RelREP returns STRAIGHT-RE+ performance relative to SS.
func (r PerfRow) RelREP() float64 { return float64(r.SSCycles) / float64(r.REPCycles) }

// PerfComparison runs Fig 11 (fourWay=true) or Fig 12 (fourWay=false):
// Dhrystone and CoreMark on SS vs STRAIGHT RAW and RE+ at equal sizing.
func (s *Session) PerfComparison(sc Scale, fourWay bool, predictor uarch.PredictorKind) ([]PerfRow, error) {
	ssCfg, stCfg := uarch.SS2Way(), uarch.Straight2Way()
	section := "Fig 12"
	if fourWay {
		ssCfg, stCfg = uarch.SS4Way(), uarch.Straight4Way()
		section = "Fig 11"
	}
	ssCfg.Predictor = predictor
	stCfg.Predictor = predictor
	if predictor == uarch.PredTAGE {
		if fourWay {
			section = "Fig 14 (4-way)"
		} else {
			section = "Fig 14 (2-way)"
		}
	}

	var points []SweepPoint
	for _, w := range workloads.All {
		n := iters(sc, w)
		points = append(points,
			SSPoint(section, string(w)+"/SS", w, n, ssCfg),
			StraightPoint(section, string(w)+"/RAW", w, n, ModeRAW, stCfg),
			StraightPoint(section, string(w)+"/RE+", w, n, ModeREP, stCfg),
		)
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	var rows []PerfRow
	for i := 0; i < len(results); i += 3 {
		ss, raw, rep := results[i], results[i+1], results[i+2]
		for _, st := range []PointResult{raw, rep} {
			if st.Output != ss.Output {
				return nil, fmt.Errorf("%s %s: output mismatch vs SS", st.Point.Workload, st.Point.Mode)
			}
		}
		rows = append(rows, PerfRow{
			Workload:  ss.Point.Workload,
			SSCycles:  ss.Cycles,
			RAWCycles: raw.Cycles,
			REPCycles: rep.Cycles,
		})
	}
	return rows, nil
}

// FormatPerf renders Fig 11/12 rows.
func FormatPerf(title string, rows []PerfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (relative performance, SS = 1.0)\n", title)
	fmt.Fprintf(&b, "%-12s %12s %14s %14s\n", "workload", "SS", "STRAIGHT RAW", "STRAIGHT RE+")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.3f %14.3f %14.3f\n", r.Workload, 1.0, r.RelRAW(), r.RelREP())
	}
	return b.String()
}

// ---- CG-OoO comparison (arXiv 1606.01607) ----

// CGRow is one workload's relative-performance bars for the
// coarse-grain comparison: SS is 1.0 by construction.
type CGRow struct {
	Workload  workloads.Workload
	SSCycles  int64
	CGCycles  int64
	REPCycles int64
}

// RelCG returns CG-OoO performance relative to SS.
func (r CGRow) RelCG() float64 { return float64(r.SSCycles) / float64(r.CGCycles) }

// RelREP returns STRAIGHT RE+ performance relative to SS.
func (r CGRow) RelREP() float64 { return float64(r.SSCycles) / float64(r.REPCycles) }

// CGComparison places the coarse-grain OoO core between the two paper
// machines: Dhrystone and CoreMark on SS, CG-OoO (same machine, issue
// coarsened to 8-instruction blocks) and STRAIGHT RE+ at equal sizing.
func (s *Session) CGComparison(sc Scale, fourWay bool) ([]CGRow, error) {
	ssCfg, cgCfg, stCfg := uarch.SS2Way(), uarch.CG2Way(), uarch.Straight2Way()
	section := "CG-OoO (2-way)"
	if fourWay {
		ssCfg, cgCfg, stCfg = uarch.SS4Way(), uarch.CG4Way(), uarch.Straight4Way()
		section = "CG-OoO (4-way)"
	}
	var points []SweepPoint
	for _, w := range workloads.All {
		n := iters(sc, w)
		points = append(points,
			SSPoint(section, string(w)+"/SS", w, n, ssCfg),
			CGPoint(section, string(w)+"/CG", w, n, cgCfg),
			StraightPoint(section, string(w)+"/RE+", w, n, ModeREP, stCfg),
		)
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	var rows []CGRow
	for i := 0; i < len(results); i += 3 {
		ss, cg, rep := results[i], results[i+1], results[i+2]
		for _, other := range []PointResult{cg, rep} {
			if other.Output != ss.Output {
				return nil, fmt.Errorf("%s %s: output mismatch vs SS", other.Point.Workload, other.Point.Core)
			}
		}
		rows = append(rows, CGRow{
			Workload:  ss.Point.Workload,
			SSCycles:  ss.Cycles,
			CGCycles:  cg.Cycles,
			REPCycles: rep.Cycles,
		})
	}
	return rows, nil
}

// FormatCG renders the coarse-grain comparison rows.
func FormatCG(title string, rows []CGRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (relative performance, SS = 1.0)\n", title)
	fmt.Fprintf(&b, "%-12s %12s %14s %14s\n", "workload", "SS", "CG-OoO", "STRAIGHT RE+")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.3f %14.3f %14.3f\n", r.Workload, 1.0, r.RelCG(), r.RelREP())
	}
	return b.String()
}

// CGBlockPoint is one block size of the CG-OoO block-size sweep.
type CGBlockPoint struct {
	BlockSize int
	Cycles    int64
	IPC       float64
}

// CGBlockSweep sweeps the coarse-grain block size on Dhrystone at
// 4-way. Block size 1 degenerates to the fully out-of-order SS machine
// (every instruction is its own block), so the first point doubles as a
// consistency anchor for the sweep.
func (s *Session) CGBlockSweep(sc Scale) ([]CGBlockPoint, error) {
	sizes := []int{1, 2, 4, 8, 16, 32}
	n := iters(sc, workloads.Dhrystone)
	var points []SweepPoint
	for _, bs := range sizes {
		cfg := uarch.CG4Way()
		cfg.CGBlockSize = bs
		cfg.Name = fmt.Sprintf("CG-4way-b%d", bs)
		points = append(points, CGPoint("CG block sweep", fmt.Sprintf("b=%d", bs), workloads.Dhrystone, n, cfg))
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	out := make([]CGBlockPoint, len(results))
	for i, r := range results {
		out[i] = CGBlockPoint{BlockSize: sizes[i], Cycles: r.Cycles, IPC: r.IPC}
	}
	return out, nil
}

// FormatCGBlocks renders the block-size sweep.
func FormatCGBlocks(pts []CGBlockPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "CG-OoO block-size sweep (Dhrystone, 4-way; block=1 is exactly SS)")
	fmt.Fprintf(&b, "%-10s %12s %8s\n", "block", "cycles", "IPC")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10d %12d %8.3f\n", p.BlockSize, p.Cycles, p.IPC)
	}
	return b.String()
}

// ---- Fig 13: misprediction-penalty effect ----

// MissPenaltyRow is one configuration's bars of Fig 13, normalized to
// SS 2-way.
type MissPenaltyRow struct {
	Width       string
	SS          float64
	SSNoPenalty float64
	StraightREP float64
}

// MissPenalty reproduces Fig 13: CoreMark on SS, SS with idealized
// zero-cost recovery, and STRAIGHT RE+, for both widths, normalized to
// SS 2-way performance.
func (s *Session) MissPenalty(sc Scale) ([]MissPenaltyRow, error) {
	n := iters(sc, workloads.CoreMark)
	var points []SweepPoint
	widths := []string{"2-way", "4-way"}
	for _, width := range widths {
		ssCfg, stCfg := uarch.SS2Way(), uarch.Straight2Way()
		if width == "4-way" {
			ssCfg, stCfg = uarch.SS4Way(), uarch.Straight4Way()
		}
		idealCfg := ssCfg
		idealCfg.ZeroMispredictPenalty = true
		points = append(points,
			SSPoint("Fig 13", width+"/SS", workloads.CoreMark, n, ssCfg),
			SSPoint("Fig 13", width+"/SS-no-penalty", workloads.CoreMark, n, idealCfg),
			StraightPoint("Fig 13", width+"/RE+", workloads.CoreMark, n, ModeREP, stCfg),
		)
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	base := float64(results[0].Cycles)
	var rows []MissPenaltyRow
	for i, width := range widths {
		ss, ideal, st := results[3*i], results[3*i+1], results[3*i+2]
		rows = append(rows, MissPenaltyRow{
			Width:       width,
			SS:          base / float64(ss.Cycles),
			SSNoPenalty: base / float64(ideal.Cycles),
			StraightREP: base / float64(st.Cycles),
		})
	}
	return rows, nil
}

// FormatMissPenalty renders Fig 13 rows.
func FormatMissPenalty(rows []MissPenaltyRow) string {
	var b strings.Builder
	b.WriteString("Fig 13: misprediction-penalty effect (CoreMark, normalized to SS 2-way)\n")
	fmt.Fprintf(&b, "%-6s %10s %14s %14s\n", "width", "SS", "SS no-penalty", "STRAIGHT RE+")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10.3f %14.3f %14.3f\n", r.Width, r.SS, r.SSNoPenalty, r.StraightREP)
	}
	return b.String()
}

// ---- Fig 15: retired instruction mix ----

// MixRow is one bar of Fig 15: fraction of each instruction type,
// normalized to the SS total instruction count.
type MixRow struct {
	Label string
	// Fractions of the SS total (so the SS bar sums to 1.0 and the
	// STRAIGHT bars exceed 1.0 by their added instructions).
	JumpBranch, ALU, Load, Store, RMOV, NOP, Others float64
}

// Total returns the bar height.
func (r MixRow) Total() float64 {
	return r.JumpBranch + r.ALU + r.Load + r.Store + r.RMOV + r.NOP + r.Others
}

// InstructionMix reproduces Fig 15 on CoreMark: retired-instruction type
// fractions for SS, STRAIGHT RAW and STRAIGHT RE+ (functional runs; the
// retirement mix is microarchitecture-independent).
func (s *Session) InstructionMix(sc Scale) ([]MixRow, error) {
	n := iters(sc, workloads.CoreMark)
	points := []SweepPoint{
		{Section: "Fig 15", Label: "SS", Workload: workloads.CoreMark, Core: CoreEmuRISCV, Iters: n},
		{Section: "Fig 15", Label: "RAW", Workload: workloads.CoreMark, Core: CoreEmuStraight, Iters: n, Mode: ModeRAW, MaxDist: 31},
		{Section: "Fig 15", Label: "RE+", Workload: workloads.CoreMark, Core: CoreEmuStraight, Iters: n, Mode: ModeREP, MaxDist: 31},
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	ssTotal := float64(results[0].EmuRISCV.Total())
	rows := []MixRow{ssMixRow(results[0].EmuRISCV, ssTotal)}
	for _, r := range results[1:] {
		rows = append(rows, straightMixRow(fmt.Sprintf("STRAIGHT(%s)", r.Point.Mode), r.EmuStraight, ssTotal))
	}
	return rows, nil
}

func ssMixRow(st *riscvemu.Stats, total float64) MixRow {
	row := MixRow{Label: "SS"}
	for op := riscv.Op(0); op < riscv.Op(riscv.NumOps); op++ {
		n := float64(st.Retired[op]) / total
		switch op.Class() {
		case riscv.ClassBranch, riscv.ClassJump:
			row.JumpBranch += n
		case riscv.ClassLoad:
			row.Load += n
		case riscv.ClassStore:
			row.Store += n
		case riscv.ClassALU, riscv.ClassMul, riscv.ClassDiv:
			row.ALU += n
		default:
			row.Others += n
		}
	}
	return row
}

func straightMixRow(label string, st *straightemu.Stats, ssTotal float64) MixRow {
	row := MixRow{Label: label}
	for op := straight.Op(0); op < straight.Op(straight.NumOps); op++ {
		n := float64(st.Retired[op]) / ssTotal
		switch {
		case op == straight.RMOV:
			row.RMOV += n
		case op == straight.NOP:
			row.NOP += n
		case op.Class() == straight.ClassBranch || op.Class() == straight.ClassJump:
			row.JumpBranch += n
		case op.Class() == straight.ClassLoad:
			row.Load += n
		case op.Class() == straight.ClassStore:
			row.Store += n
		case op.Class() == straight.ClassALU || op.Class() == straight.ClassMul || op.Class() == straight.ClassDiv:
			row.ALU += n
		default:
			row.Others += n
		}
	}
	return row
}

// FormatMix renders Fig 15 rows.
func FormatMix(rows []MixRow) string {
	var b strings.Builder
	b.WriteString("Fig 15: retired instruction mix (normalized to SS total)\n")
	fmt.Fprintf(&b, "%-15s %7s %7s %7s %7s %7s %7s %7s %7s\n",
		"model", "J+Br", "ALU", "LD", "ST", "RMOV", "NOP", "Other", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f\n",
			r.Label, r.JumpBranch, r.ALU, r.Load, r.Store, r.RMOV, r.NOP, r.Others, r.Total())
	}
	return b.String()
}

// ---- Fig 16: source-distance CDF ----

// DistancePoint is one point of the cumulative distance distribution.
type DistancePoint struct {
	Distance int
	CumFrac  float64
}

// DistanceCDF reproduces Fig 16: cumulative fraction of source operand
// distances, for code generated with the ISA-maximum distance limit
// (1023), per workload.
func (s *Session) DistanceCDF(sc Scale) (map[workloads.Workload][]DistancePoint, error) {
	var points []SweepPoint
	for _, w := range workloads.All {
		points = append(points, SweepPoint{
			Section: "Fig 16", Label: string(w), Workload: w,
			Core: CoreEmuStraight, Iters: iters(sc, w), Mode: ModeREP, MaxDist: 1023,
		})
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	out := make(map[workloads.Workload][]DistancePoint)
	for _, r := range results {
		hist := r.EmuStraight.DistanceHist
		var total uint64
		for _, n := range hist {
			total += n
		}
		var pts []DistancePoint
		var cum uint64
		next := 1
		maxD := int(r.EmuStraight.MaxObservedDistance)
		for d := 1; d < len(hist); d++ {
			cum += hist[d]
			if d == next {
				pts = append(pts, DistancePoint{Distance: d, CumFrac: float64(cum) / float64(total)})
				next *= 2
				if d >= maxD {
					break
				}
			}
		}
		if len(pts) == 0 || pts[len(pts)-1].Distance < maxD {
			pts = append(pts, DistancePoint{Distance: maxD, CumFrac: 1.0})
		}
		out[r.Point.Workload] = pts
	}
	return out, nil
}

// FormatCDF renders Fig 16 series.
func FormatCDF(cdfs map[workloads.Workload][]DistancePoint) string {
	var b strings.Builder
	b.WriteString("Fig 16: cumulative fraction of source operand distance\n")
	for _, w := range workloads.All {
		fmt.Fprintf(&b, "%s:\n", w)
		for _, p := range cdfs[w] {
			fmt.Fprintf(&b, "  d<=%4d: %6.3f\n", p.Distance, p.CumFrac)
		}
	}
	return b.String()
}

// ---- §VI-B: maximum-distance sensitivity ----

// MaxDistPoint is one sweep point.
type MaxDistPoint struct {
	MaxDistance int
	Cycles      int64
	RelPerf     float64 // vs the 1023 configuration
}

// MaxDistSweep reproduces the §VI-B sensitivity experiment: CoreMark
// RE+ compiled and simulated at several maximum distances. The register
// file shrinks with the distance (MAX_RP = dist + ROB).
func (s *Session) MaxDistSweep(sc Scale) ([]MaxDistPoint, error) {
	n := iters(sc, workloads.CoreMark)
	dists := []int{31, 63, 127, 255, 1023}
	var points []SweepPoint
	for _, d := range dists {
		cfg := uarch.Straight4Way()
		cfg.MaxDistance = d
		points = append(points, StraightPoint("VI-B", fmt.Sprintf("maxdist-%d", d),
			workloads.CoreMark, n, ModeREP, cfg))
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, err
	}
	base := results[len(results)-1].Cycles // the 1023 configuration
	pts := make([]MaxDistPoint, len(results))
	for i, r := range results {
		pts[i] = MaxDistPoint{
			MaxDistance: dists[i],
			Cycles:      r.Cycles,
			RelPerf:     float64(base) / float64(r.Cycles),
		}
	}
	return pts, nil
}

// FormatMaxDist renders the sweep.
func FormatMaxDist(pts []MaxDistPoint) string {
	var b strings.Builder
	b.WriteString("Max-distance sensitivity (CoreMark RE+, STRAIGHT-4way, rel. to 1023)\n")
	fmt.Fprintf(&b, "%8s %12s %8s\n", "maxdist", "cycles", "rel")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %12d %8.3f\n", p.MaxDistance, p.Cycles, p.RelPerf)
	}
	return b.String()
}

// ---- Fig 17: power ----

// PowerAnalysis reproduces Fig 17 with the activity-based power model:
// CoreMark on the 2-way models (the paper's RTL is 2-way-like) at 1.0x,
// 2.5x and 4.0x clock.
func (s *Session) PowerAnalysis(sc Scale) ([]power.Figure17Row, float64, error) {
	n := iters(sc, workloads.CoreMark)
	stCfg := uarch.Straight2Way()
	points := []SweepPoint{
		SSPoint("Fig 17", "SS", workloads.CoreMark, n, uarch.SS2Way()),
		StraightPoint("Fig 17", "RE+", workloads.CoreMark, n, ModeREP, stCfg),
	}
	results, err := s.Run(points)
	if err != nil {
		return nil, 0, err
	}
	ssStats, stStats := results[0].Stats, results[1].Stats
	m := power.NewModel()
	rows := m.Figure17(ssStats, stStats, []float64{1.0, 2.5, 4.0})
	return rows, m.RenameShareOfOther(ssStats), nil
}

// ---- Table I ----

// FormatTableI prints the evaluated model parameters.
func FormatTableI() string {
	var b strings.Builder
	b.WriteString("Table I: evaluated models\n")
	cfgs := []uarch.Config{uarch.SS2Way(), uarch.Straight2Way(), uarch.SS4Way(), uarch.Straight4Way()}
	fmt.Fprintf(&b, "%-22s %10s %14s %10s %14s\n", "parameter", cfgs[0].Name, cfgs[1].Name, cfgs[2].Name, cfgs[3].Name)
	row := func(name string, f func(uarch.Config) string) {
		fmt.Fprintf(&b, "%-22s %10s %14s %10s %14s\n", name,
			f(cfgs[0]), f(cfgs[1]), f(cfgs[2]), f(cfgs[3]))
	}
	row("fetch width", func(c uarch.Config) string { return fmt.Sprint(c.FetchWidth) })
	row("front-end latency", func(c uarch.Config) string { return fmt.Sprint(c.FrontEndLatency) })
	row("ROB capacity", func(c uarch.Config) string { return fmt.Sprint(c.ROBSize) })
	row("scheduler", func(c uarch.Config) string { return fmt.Sprintf("%dw/%de", c.IssueWidth, c.SchedulerSize) })
	row("register file", func(c uarch.Config) string {
		if c.MaxDistance > 0 {
			return fmt.Sprintf("%d(RP)", c.MaxRP())
		}
		return fmt.Sprint(c.RegFileSize)
	})
	row("LSQ (LD/ST)", func(c uarch.Config) string { return fmt.Sprintf("%d/%d", c.LQSize, c.SQSize) })
	row("commit width", func(c uarch.Config) string { return fmt.Sprint(c.CommitWidth) })
	row("max distance", func(c uarch.Config) string {
		if c.MaxDistance > 0 {
			return fmt.Sprint(c.MaxDistance)
		}
		return "-"
	})
	return b.String()
}
