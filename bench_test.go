// Benchmarks reproducing every table and figure of the paper's
// evaluation (§VI). Each benchmark runs its experiment once per b.N
// iteration and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's results. cmd/experiments prints the full
// tables; EXPERIMENTS.md records paper-vs-measured values.
package straight_test

import (
	"testing"

	"straight/internal/bench"
	"straight/internal/power"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

var scale = bench.ScaleDefault

// sess runs every benchmark, so later iterations reuse its build cache.
var sess = bench.NewSession()

// BenchmarkTableI_Configs checks and reports the Table I model
// parameters (a configuration self-test more than a timing benchmark).
func BenchmarkTableI_Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.FormatTableI()
	}
	b.ReportMetric(float64(uarch.SS4Way().ROBSize), "rob_entries_4way")
	b.ReportMetric(float64(uarch.Straight4Way().MaxRP()), "max_rp_4way")
}

// BenchmarkFig11_Perf4Way: STRAIGHT vs SS at 4-way (paper: RE+ +15.7% on
// Dhrystone, +18.8% on CoreMark; RAW ≈ −4% on CoreMark).
func BenchmarkFig11_Perf4Way(b *testing.B) {
	var rows []bench.PerfRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sess.PerfComparison(scale, true, uarch.PredGshare)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, rows)
}

// BenchmarkFig12_Perf2Way: STRAIGHT vs SS at 2-way (paper: RE+ −7.4% on
// Dhrystone, +5.5% on CoreMark).
func BenchmarkFig12_Perf2Way(b *testing.B) {
	var rows []bench.PerfRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sess.PerfComparison(scale, false, uarch.PredGshare)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, rows)
}

func report(b *testing.B, rows []bench.PerfRow) {
	for _, r := range rows {
		b.ReportMetric(r.RelRAW(), string(r.Workload)+"_RAW_rel")
		b.ReportMetric(r.RelREP(), string(r.Workload)+"_REplus_rel")
	}
}

// BenchmarkFig13_MissPenalty: SS vs idealized-recovery SS vs STRAIGHT
// RE+ on CoreMark (paper: the penalty costs SS ≈ 20%).
func BenchmarkFig13_MissPenalty(b *testing.B) {
	var rows []bench.MissPenaltyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sess.MissPenalty(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SS, r.Width+"_SS")
		b.ReportMetric(r.SSNoPenalty, r.Width+"_SS_nopenalty")
		b.ReportMetric(r.StraightREP, r.Width+"_STRAIGHT_REplus")
	}
}

// BenchmarkFig14_TAGE: the Fig 11/12 comparison with the TAGE predictor
// (paper: the gap narrows but STRAIGHT-4way keeps ≈ +10%).
func BenchmarkFig14_TAGE(b *testing.B) {
	var rows2, rows4 []bench.PerfRow
	for i := 0; i < b.N; i++ {
		var err error
		rows2, err = sess.PerfComparison(scale, false, uarch.PredTAGE)
		if err != nil {
			b.Fatal(err)
		}
		rows4, err = sess.PerfComparison(scale, true, uarch.PredTAGE)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows2 {
		b.ReportMetric(r.RelREP(), "2way_"+string(r.Workload)+"_REplus_rel")
	}
	for _, r := range rows4 {
		b.ReportMetric(r.RelREP(), "4way_"+string(r.Workload)+"_REplus_rel")
	}
}

// BenchmarkFig15_InstructionMix: retired-instruction type fractions
// (paper: RAW ≈ 2× the SS count, mostly RMOV; RE+ cuts added RMOVs to
// ≈ 20% of the SS count).
func BenchmarkFig15_InstructionMix(b *testing.B) {
	var rows []bench.MixRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sess.InstructionMix(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Total(), r.Label+"_total")
		b.ReportMetric(r.RMOV, r.Label+"_rmov")
	}
}

// BenchmarkFig16_DistanceCDF: cumulative source-distance distribution
// (paper: 30–40% at distance 1; most within 32; max < 128).
func BenchmarkFig16_DistanceCDF(b *testing.B) {
	var cdfs map[workloads.Workload][]bench.DistancePoint
	for i := 0; i < b.N; i++ {
		var err error
		cdfs, err = sess.DistanceCDF(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for w, pts := range cdfs {
		for _, p := range pts {
			if p.Distance == 1 {
				b.ReportMetric(p.CumFrac, string(w)+"_frac_d1")
			}
			if p.Distance == 32 {
				b.ReportMetric(p.CumFrac, string(w)+"_frac_d32")
			}
		}
	}
}

// BenchmarkTableS_MaxDistSweep: §VI-B sensitivity — reducing the maximum
// distance from 1023 to 31 (paper: ≈ 1% degradation on CoreMark).
func BenchmarkTableS_MaxDistSweep(b *testing.B) {
	var pts []bench.MaxDistPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sess.MaxDistSweep(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.RelPerf, "rel_at_maxdist_"+itoa(p.MaxDistance))
	}
}

// BenchmarkFig17_Power: the RTL power substitution (paper: rename power
// removed; RF < +18%; other < +5%; SS rename ≈ 5.7% of other).
func BenchmarkFig17_Power(b *testing.B) {
	var rows []power.Figure17Row
	var share float64
	for i := 0; i < b.N; i++ {
		var err error
		rows, share, err = sess.PowerAnalysis(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(share, "ss_rename_share_of_other")
	for _, r := range rows {
		if r.FreqMult == 1.0 {
			key := map[string]string{
				"Rename Logic": "rename", "Register File": "regfile", "Other Modules": "other",
			}[r.Module]
			b.ReportMetric(r.Straight, "straight_"+key+"_rel_1x")
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblations: design-choice knob sweep (prefetcher, memory-
// dependence policy, SPADD group limit, predictor) on both 4-way models.
func BenchmarkAblations(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sess.Ablations(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	base := rows[0]
	for _, r := range rows[1:] {
		b.ReportMetric(float64(r.StraightCycles)/float64(base.StraightCycles), "straight_"+r.Knob)
	}
}

// BenchmarkExt_WindowScaling: the paper's ROB-scalability motivation —
// growing the instruction window should favor STRAIGHT (its recovery
// cost does not grow with the ROB).
func BenchmarkExt_WindowScaling(b *testing.B) {
	var pts []bench.WindowPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sess.WindowScaling(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.SSCycles)/float64(p.StraightCycles), "st_over_ss_rob"+itoa(p.ROB))
	}
}
