// Package power is the activity-based stand-in for the paper's RTL power
// analysis (§V-B, Fig 17). The paper synthesized RTL for STRAIGHT and an
// RV32I superscalar and measured per-module power with Cadence Joules at
// several clock frequencies; here, per-module energy-per-event
// coefficients are applied to the cycle simulators' activity counters,
// and dynamic power scales with frequency times a mild voltage-squared
// term (faster timing closure needs higher supply).
//
// Reported quantities are RELATIVE powers, exactly like Fig 17: each
// module's power is normalized to the SS core's corresponding module at
// the baseline frequency. The coefficients below are calibrated so the
// SS baseline reproduces the paper's stated proportion — rename logic
// ≈ 5.7% of the "other modules" power — and the STRAIGHT-vs-SS deltas
// (register file < +18%, other < +5%) then emerge from the measured
// activity (they are not hard-coded).
package power

import (
	"fmt"
	"strings"

	"straight/internal/uarch"
)

// Coefficients are energy-per-event weights (arbitrary units; only
// ratios matter for the relative figures).
type Coefficients struct {
	// Rename-logic events.
	RMTRead     float64 // RAM-RMT port read (source or old-dest lookup)
	RMTWrite    float64 // RAM-RMT port write
	FreeListOp  float64 // free-list pop/push
	ROBWalkStep float64 // one entry of recovery walk
	RPAdd       float64 // STRAIGHT operand-determination adder
	SPAddExec   float64 // STRAIGHT in-order SP update

	// Register file events.
	RegRead  float64
	RegWrite float64

	// "Other modules": the rest of the core (fetch/decode, scheduler,
	// FUs, ROB, LSQ). Caches, buses and the branch predictor are
	// excluded, as in the paper.
	Fetch          float64
	IQWakeup       float64
	IQIssue        float64
	Execute        float64 // per retired instruction (FU datapath)
	ROBWrite       float64 // per dispatched instruction
	LSQOp          float64 // per load/store
	StaticPerCycle float64 // clock tree + idle structures, per cycle
}

// DefaultCoefficients is the calibrated set (see package comment).
func DefaultCoefficients() Coefficients {
	return Coefficients{
		RMTRead:     0.11,
		RMTWrite:    0.15,
		FreeListOp:  0.05,
		ROBWalkStep: 0.13,
		RPAdd:       0.012, // a 10-bit adder vs a multiported RAM read
		SPAddExec:   0.06,

		RegRead:  1.0,
		RegWrite: 1.3,

		Fetch:          1.1,
		IQWakeup:       0.35,
		IQIssue:        0.9,
		Execute:        2.1,
		ROBWrite:       0.8,
		LSQOp:          1.2,
		StaticPerCycle: 1.45,
	}
}

// Breakdown is per-module average power (energy/cycle, scaled by the
// frequency/voltage model).
type Breakdown struct {
	Rename   float64
	RegFile  float64
	Other    float64
	FreqMult float64
}

// Total returns the summed module power.
func (b Breakdown) Total() float64 { return b.Rename + b.RegFile + b.Other }

// Model evaluates breakdowns from simulation statistics.
type Model struct {
	C Coefficients
}

// NewModel returns a model with the calibrated default coefficients.
func NewModel() *Model { return &Model{C: DefaultCoefficients()} }

// voltageFactor models the supply increase needed to close timing at
// higher clocks; power scales with f·V². Calibrated to the shape of
// Fig 17 (≈4.2× "other" power at 4.0× frequency).
func voltageFactor(freqMult float64) float64 {
	v := 1 + 0.017*(freqMult-1)
	return v * v
}

// Analyze converts run statistics into per-module average power at the
// given frequency multiplier (1.0 = baseline clock). The rename module
// sums both operand-determination families: a rename policy counts RMT,
// free-list and ROB-walk events, the STRAIGHT policy RP additions and
// SP updates, and each leaves the other family at zero.
func (m *Model) Analyze(s *uarch.Stats, freqMult float64) Breakdown {
	cyc := float64(s.Cycles)
	if cyc == 0 {
		cyc = 1
	}
	c := m.C

	rename := c.RMTRead*float64(s.RenameReads) +
		c.RMTWrite*float64(s.RenameWrites) +
		c.FreeListOp*float64(s.FreeListOps) +
		c.ROBWalkStep*float64(s.ROBWalkSteps) +
		c.RPAdd*float64(s.RPAdditions) +
		c.SPAddExec*float64(s.SPAddExecuted)

	regfile := c.RegRead*float64(s.RegReads) + c.RegWrite*float64(s.RegWrites)

	other := c.Fetch*float64(s.FetchedInsts) +
		c.IQWakeup*float64(s.IQWakeups) +
		c.IQIssue*float64(s.IQIssued) +
		c.Execute*float64(s.Retired) +
		c.ROBWrite*float64(s.Retired) +
		c.LSQOp*float64(s.Loads+s.Stores) +
		c.StaticPerCycle*cyc

	scale := freqMult * voltageFactor(freqMult) / cyc
	return Breakdown{
		Rename:   rename * scale,
		RegFile:  regfile * scale,
		Other:    other * scale,
		FreqMult: freqMult,
	}
}

// Figure17Row is one (module, frequency) pair of the Fig 17 bar chart.
type Figure17Row struct {
	Module   string
	FreqMult float64
	SS       float64
	Straight float64
}

// Figure17 renders the full figure: per-module relative powers of SS and
// STRAIGHT at the given frequency multipliers, each normalized to the
// SS module's power at the first (baseline) multiplier.
func (m *Model) Figure17(ss, st *uarch.Stats, freqs []float64) []Figure17Row {
	modules := []struct {
		name string
		of   func(Breakdown) float64
	}{
		{"Rename Logic", func(b Breakdown) float64 { return b.Rename }},
		{"Register File", func(b Breakdown) float64 { return b.RegFile }},
		{"Other Modules", func(b Breakdown) float64 { return b.Other }},
	}
	base := m.Analyze(ss, freqs[0])
	var rows []Figure17Row
	for _, mod := range modules {
		norm := mod.of(base)
		for _, f := range freqs {
			rows = append(rows, Figure17Row{
				Module: mod.name, FreqMult: f,
				SS: mod.of(m.Analyze(ss, f)) / norm, Straight: mod.of(m.Analyze(st, f)) / norm,
			})
		}
	}
	return rows
}

// FormatRows renders Figure17 rows as an aligned table.
func FormatRows(rows []Figure17Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %5s %10s %10s\n", "Module", "Freq", "SS", "STRAIGHT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %4.1fx %10.3f %10.3f\n", r.Module, r.FreqMult, r.SS, r.Straight)
	}
	return b.String()
}

// RenameShareOfOther reports the SS rename power as a fraction of the
// "other modules" power (the paper quotes ≈ 5.7% for its small 2-way
// RTL).
func (m *Model) RenameShareOfOther(ss *uarch.Stats) float64 {
	b := m.Analyze(ss, 1.0)
	if b.Other == 0 {
		return 0
	}
	return b.Rename / b.Other
}
