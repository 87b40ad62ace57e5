package bench

import (
	"testing"

	"straight/internal/power"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// The harness tests run everything at the quick scale and assert the
// qualitative shapes the paper reports (who wins, rough factors,
// crossovers) — not absolute numbers.

func TestPerfComparisonShape(t *testing.T) {
	rows, err := NewSession().PerfComparison(ScaleQuick, true, uarch.PredGshare)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 workloads, got %d", len(rows))
	}
	for _, r := range rows {
		if r.SSCycles <= 0 || r.RAWCycles <= 0 || r.REPCycles <= 0 {
			t.Fatalf("%s: missing cycles: %+v", r.Workload, r)
		}
		// RE+ must beat RAW (the paper's core compiler claim).
		if r.RelREP() <= r.RelRAW() {
			t.Errorf("%s: RE+ (%.3f) should beat RAW (%.3f)", r.Workload, r.RelREP(), r.RelRAW())
		}
	}
}

func TestMissPenaltyShape(t *testing.T) {
	rows, err := NewSession().MissPenalty(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Removing the penalty can only help the SS core.
		if r.SSNoPenalty < r.SS {
			t.Errorf("%s: SS no-penalty (%.3f) below SS (%.3f)", r.Width, r.SSNoPenalty, r.SS)
		}
	}
	// 4-way must outperform 2-way.
	if rows[1].SS <= rows[0].SS {
		t.Errorf("SS 4-way (%.3f) should beat SS 2-way (%.3f)", rows[1].SS, rows[0].SS)
	}
}

func TestInstructionMixShape(t *testing.T) {
	rows, err := NewSession().InstructionMix(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	ss, raw, rep := rows[0], rows[1], rows[2]
	if ss.RMOV != 0 || ss.NOP != 0 {
		t.Error("SS must have no RMOV/NOP")
	}
	if raw.RMOV <= rep.RMOV {
		t.Errorf("RAW RMOV fraction (%.3f) must exceed RE+ (%.3f)", raw.RMOV, rep.RMOV)
	}
	if raw.Total() <= 1.0 || rep.Total() <= 1.0 {
		t.Error("STRAIGHT code must be larger than SS")
	}
	if rep.Total() >= raw.Total() {
		t.Errorf("RE+ total (%.3f) must be below RAW (%.3f)", rep.Total(), raw.Total())
	}
	if got := ss.Total(); got < 0.999 || got > 1.001 {
		t.Errorf("SS bar must sum to 1.0, got %.4f", got)
	}
}

func TestDistanceCDFShape(t *testing.T) {
	cdfs, err := NewSession().DistanceCDF(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.All {
		pts := cdfs[w]
		if len(pts) == 0 {
			t.Fatalf("%s: empty CDF", w)
		}
		var d1, d32 float64
		maxD := 0
		for _, p := range pts {
			if p.Distance == 1 {
				d1 = p.CumFrac
			}
			if p.Distance == 32 {
				d32 = p.CumFrac
			}
			if p.Distance > maxD {
				maxD = p.Distance
			}
		}
		// Paper: ~30-40% of operands at distance 1; most within 32;
		// actual max under 128.
		if d1 < 0.15 || d1 > 0.7 {
			t.Errorf("%s: distance-1 fraction %.3f outside plausible band", w, d1)
		}
		if d32 < 0.85 {
			t.Errorf("%s: distance<=32 fraction %.3f, want most operands", w, d32)
		}
		if maxD >= 1024 {
			t.Errorf("%s: max distance %d out of ISA range", w, maxD)
		}
		// Monotone CDF.
		prev := 0.0
		for _, p := range pts {
			if p.CumFrac+1e-9 < prev {
				t.Errorf("%s: CDF not monotone at d=%d", w, p.Distance)
			}
			prev = p.CumFrac
		}
	}
}

func TestMaxDistSweepShape(t *testing.T) {
	pts, err := NewSession().MaxDistSweep(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	if pts[len(pts)-1].MaxDistance != 1023 {
		t.Fatal("sweep must end at 1023")
	}
	base := pts[len(pts)-1].Cycles
	for _, p := range pts {
		// Smaller windows can only be slower (or equal).
		if p.Cycles < base-base/100 {
			t.Errorf("maxdist %d faster (%d) than 1023 (%d)?", p.MaxDistance, p.Cycles, base)
		}
	}
}

func TestPowerAnalysisShape(t *testing.T) {
	rows, share, err := NewSession().PowerAnalysis(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: SS rename ≈ 5.7% of other modules.
	if share < 0.02 || share > 0.15 {
		t.Errorf("SS rename share %.3f far from the paper's ~5.7%%", share)
	}
	for _, r := range rows {
		switch r.Module {
		case "Rename Logic":
			// "the power corresponding register renaming is almost
			// removed in STRAIGHT".
			if r.Straight > 0.25*r.SS {
				t.Errorf("STRAIGHT rename power %.3f not nearly removed vs SS %.3f (%.1fx)",
					r.Straight, r.SS, r.FreqMult)
			}
		case "Register File":
			// Slight increase allowed (paper: under +18%).
			if r.Straight > 1.5*r.SS {
				t.Errorf("STRAIGHT RF power %.3f too far above SS %.3f", r.Straight, r.SS)
			}
		case "Other Modules":
			if r.Straight > 1.4*r.SS {
				t.Errorf("STRAIGHT other power %.3f too far above SS %.3f", r.Straight, r.SS)
			}
		}
	}
	m := power.NewModel()
	if m.C.RPAdd >= m.C.RMTRead {
		t.Error("an RP adder must be cheaper than an RMT read")
	}
}

func TestBuildCachingIsCoherent(t *testing.T) {
	s := NewSession()
	a, err := s.BuildRISCV(workloads.MicroFib, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.BuildRISCV(workloads.MicroFib, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss for identical build key")
	}
	c, err := s.BuildRISCV(workloads.MicroFib, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different iteration counts must not share an image")
	}
}
