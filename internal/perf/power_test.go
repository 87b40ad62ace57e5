package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"straight/internal/cores"
	"straight/internal/power"
)

// loadGoldens reads both golden corpora, keyed "kernel/workload".
func loadGoldens(t *testing.T) map[string]goldenEntry {
	t.Helper()
	all := map[string]goldenEntry{}
	for _, name := range []string{"golden_stats.json", "golden_stats_extra.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &all); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return all
}

// TestGoldenRenameFamiliesDisjoint pins what lets the power model sum
// both operand-determination counter families without asking which
// core ran: every policy leaves the other family at zero. STRAIGHT never
// touches an RMT, free list or ROB walk; the rename policies never count
// RP additions or in-order SP updates.
func TestGoldenRenameFamiliesDisjoint(t *testing.T) {
	for key, e := range loadGoldens(t) {
		name, _, _ := strings.Cut(key, "/")
		k, err := KernelByName(name)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		s := e.Stats
		rename := []uint64{s.RenameReads, s.RenameWrites, s.FreeListOps, s.ROBWalkSteps}
		distance := []uint64{s.RPAdditions, s.SPAddExecuted}
		m, err := cores.Lookup(string(k.Kind))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		other := distance
		if m.ISA == cores.ISAStraight {
			other = rename
		}
		for _, v := range other {
			if v != 0 {
				t.Errorf("%s: %s kernel counts the other policy's rename events: rename %v, distance %v",
					key, k.Kind, rename, distance)
				break
			}
		}
	}
}

// TestFigure17Pinned recomputes the Fig 17 rows from the 2-way CoreMark
// goldens and requires them bit-identical to the recorded values.
func TestFigure17Pinned(t *testing.T) {
	g := loadGoldens(t)
	ss, st := g["ss-2way/coremark"].Stats, g["straight-2way/coremark"].Stats
	got := power.NewModel().Figure17(&ss, &st, []float64{1.0, 2.5, 4.0})
	want := []power.Figure17Row{
		{Module: "Rename Logic", FreqMult: 1, SS: 1, Straight: 0.037746690153272075},
		{Module: "Rename Logic", FreqMult: 2.5, SS: 2.629125625, Straight: 0.09924079034090282},
		{Module: "Rename Logic", FreqMult: 4, SS: 4.418404, Straight: 0.16678012675997794},
		{Module: "Register File", FreqMult: 1, SS: 1, Straight: 1.1858700160847064},
		{Module: "Register File", FreqMult: 2.5, SS: 2.629125625, Straight: 3.1178012472074643},
		{Module: "Register File", FreqMult: 4, SS: 4.418404, Straight: 5.239652822548731},
		{Module: "Other Modules", FreqMult: 1, SS: 1, Straight: 1.0491573132969596},
		{Module: "Other Modules", FreqMult: 2.5, SS: 2.6291256250000004, Straight: 2.7583663770451903},
		{Module: "Other Modules", FreqMult: 4, SS: 4.418404, Straight: 4.635600869700539},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%#v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: got %#v, want %#v", i, got[i], want[i])
		}
	}
}
