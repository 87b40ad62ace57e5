package power

import (
	"strings"
	"testing"

	"straight/internal/uarch"
)

// synthetic stats shaped like a CoreMark run on the 2-way models.
func ssStats() *uarch.Stats {
	return &uarch.Stats{
		Cycles: 100_000, Retired: 95_000,
		FetchedInsts: 120_000,
		RenameReads:  230_000, RenameWrites: 90_000,
		FreeListOps: 180_000, ROBWalkSteps: 30_000,
		RegReads: 150_000, RegWrites: 90_000,
		IQWakeups: 200_000, IQIssued: 95_000,
		Loads: 20_000, Stores: 10_000,
	}
}

func stStats() *uarch.Stats {
	return &uarch.Stats{
		Cycles: 100_000, Retired: 108_000,
		FetchedInsts: 135_000,
		RPAdditions:  160_000, SPAddExecuted: 600,
		RegReads: 170_000, RegWrites: 105_000,
		IQWakeups: 230_000, IQIssued: 108_000,
		Loads: 22_000, Stores: 10_000,
	}
}

func TestRenameShareCalibration(t *testing.T) {
	m := NewModel()
	share := m.RenameShareOfOther(ssStats())
	if share < 0.03 || share > 0.12 {
		t.Errorf("SS rename share %.3f should sit near the paper's 5.7%%", share)
	}
}

func TestStraightRemovesRenamePower(t *testing.T) {
	m := NewModel()
	ss := m.Analyze(ssStats(), 1.0)
	st := m.Analyze(stStats(), 1.0)
	if st.Rename > 0.2*ss.Rename {
		t.Errorf("STRAIGHT rename power %.3f not nearly removed (SS %.3f)", st.Rename, ss.Rename)
	}
	// Higher IPC raises RF and other power moderately, never wildly.
	if st.RegFile < ss.RegFile || st.RegFile > 1.5*ss.RegFile {
		t.Errorf("RF power out of band: %.3f vs %.3f", st.RegFile, ss.RegFile)
	}
}

func TestFrequencyScalingShape(t *testing.T) {
	m := NewModel()
	s := ssStats()
	p1 := m.Analyze(s, 1.0).Total()
	p25 := m.Analyze(s, 2.5).Total()
	p40 := m.Analyze(s, 4.0).Total()
	if !(p1 < p25 && p25 < p40) {
		t.Fatal("power must increase with frequency")
	}
	// Mildly superlinear: between f and f^1.2 at 4x.
	ratio := p40 / p1
	if ratio < 4.0 || ratio > 5.0 {
		t.Errorf("4x frequency power ratio %.2f outside the Fig 17 band", ratio)
	}
}

func TestFigure17Normalization(t *testing.T) {
	m := NewModel()
	rows := m.Figure17(ssStats(), stStats(), []float64{1.0, 2.5, 4.0})
	if len(rows) != 9 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.FreqMult == 1.0 && (r.SS < 0.999 || r.SS > 1.001) {
			t.Errorf("%s: SS baseline must normalize to 1.0, got %.3f", r.Module, r.SS)
		}
	}
	out := FormatRows(rows)
	for _, want := range []string{"Rename Logic", "Register File", "Other Modules", "4.0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRows missing %q", want)
		}
	}
}

func TestZeroCyclesIsSafe(t *testing.T) {
	m := NewModel()
	b := m.Analyze(&uarch.Stats{}, 1.0)
	if b.Total() < 0 {
		t.Error("zero stats must not produce negative power")
	}
}
