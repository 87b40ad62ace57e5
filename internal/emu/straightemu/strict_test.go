package straightemu

import (
	"errors"
	"io"
	"testing"

	"straight/internal/emu"
	"straight/internal/isa/straight"
	"straight/internal/program"
)

func image(words ...uint32) *program.Image {
	im := program.New()
	im.Entry = im.TextBase
	im.Text = words
	return im
}

func enc(inst straight.Inst) uint32 { return straight.MustEncode(inst) }

func nops(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = enc(straight.Inst{Op: straight.NOP})
	}
	return out
}

// TestStrictFaultKinds drives every fault class the fuzzer's oracle must
// distinguish: each program triggers exactly one fault of the expected
// kind at the expected dynamic instruction. The table covers every
// source-reading format (FmtR, FmtI, FmtS src1/src2, FmtJR) so no read
// path can silently wrap instead of faulting in strict mode.
func TestStrictFaultKinds(t *testing.T) {
	type tc struct {
		name   string
		text   []uint32
		strict int // 0 = strict at ISA max; -1 = strict off
		kind   emu.FaultKind
		count  uint64 // dynamic instruction count at the fault
	}
	cases := []tc{
		{
			// First instruction reads [1]: nothing has been written yet.
			name:   "uninit-fmtI",
			text:   []uint32{enc(straight.Inst{Op: straight.ADDI, Src1: 1, Imm: 0})},
			strict: 0, kind: emu.FaultStrictUninit, count: 0,
		},
		{
			// FmtR src2 reaches one slot before program entry.
			name: "uninit-fmtR-src2",
			text: append(nops(2),
				enc(straight.Inst{Op: straight.ADD, Src1: 1, Src2: 3})),
			strict: 0, kind: emu.FaultStrictUninit, count: 2,
		},
		{
			// FmtJR: JR of a never-written slot faults before jumping.
			name:   "uninit-fmtJR",
			text:   []uint32{enc(straight.Inst{Op: straight.JR, Src1: 2})},
			strict: 0, kind: emu.FaultStrictUninit, count: 0,
		},
		{
			// Store value operand (FmtS src2) past the bound: 33 producers
			// exist, but the bound is 31.
			name: "over-bound-store-src2",
			text: append(nops(33),
				enc(straight.Inst{Op: straight.SW, Src1: 0, Src2: 32, Imm: 0})),
			strict: 31, kind: emu.FaultStrictBound, count: 33,
		},
		{
			// Distance exactly at the bound is legal; bound+1 faults.
			name: "over-bound-fmtI",
			text: append(nops(40),
				enc(straight.Inst{Op: straight.ORI, Src1: 32, Imm: 1})),
			strict: 31, kind: emu.FaultStrictBound, count: 40,
		},
		{
			// SYS argument read of a never-written slot (FmtS via SYS).
			name:   "uninit-sys-arg",
			text:   []uint32{enc(straight.Inst{Op: straight.SYS, Src1: 1, Imm: straight.SysPuti})},
			strict: 0, kind: emu.FaultStrictUninit, count: 0,
		},
		{
			// Misaligned word load (address 2).
			name:   "misaligned-load",
			text:   []uint32{enc(straight.Inst{Op: straight.LW, Src1: 0, Imm: 2})},
			strict: -1, kind: emu.FaultMisaligned, count: 0,
		},
		{
			// Misaligned store (address 6).
			name: "misaligned-store",
			text: []uint32{
				enc(straight.Inst{Op: straight.ADDI, Src1: 0, Imm: 6}),
				enc(straight.Inst{Op: straight.SH, Src1: 1, Src2: 0, Imm: 1}),
			},
			strict: -1, kind: emu.FaultMisaligned, count: 1,
		},
		{
			// JR to a non-multiple-of-4 target.
			name: "misaligned-jump",
			text: []uint32{
				enc(straight.Inst{Op: straight.ADDI, Src1: 0, Imm: 2}),
				enc(straight.Inst{Op: straight.JR, Src1: 1}),
			},
			strict: -1, kind: emu.FaultMisaligned, count: 1,
		},
		{
			// Unknown SYS function code 9.
			name:   "bad-sys",
			text:   []uint32{enc(straight.Inst{Op: straight.SYS, Imm: 9})},
			strict: -1, kind: emu.FaultBadSys, count: 0,
		},
		{
			// Undecodable opcode byte.
			name:   "bad-decode",
			text:   []uint32{0xFF00_0000},
			strict: -1, kind: emu.FaultDecode, count: 0,
		},
		{
			// Direct jump off the end of text: the redirect itself is legal,
			// the next fetch faults.
			name:   "fetch-outside-text",
			text:   []uint32{enc(straight.Inst{Op: straight.J, Imm: 100})},
			strict: -1, kind: emu.FaultFetch, count: 1,
		},
		{
			// Self-loop never exits: the Run bound reports a limit fault.
			name:   "insn-limit",
			text:   []uint32{enc(straight.Inst{Op: straight.J, Imm: 0})},
			strict: -1, kind: emu.FaultLimit, count: 16,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m := New(image(c.text...))
			if c.strict >= 0 {
				m.SetStrict(c.strict)
			}
			limit := uint64(100)
			if c.kind == emu.FaultLimit {
				limit = 16
			}
			_, err := m.Run(limit)
			if err == nil {
				t.Fatalf("expected a %v fault, ran clean", c.kind)
			}
			var f *emu.Fault
			if !errors.As(err, &f) {
				t.Fatalf("expected *Fault, got %T: %v", err, err)
			}
			if f.Kind != c.kind {
				t.Errorf("fault kind = %v, want %v (%v)", f.Kind, c.kind, f)
			}
			if f.Count != c.count {
				t.Errorf("fault at insn#%d, want insn#%d (%v)", f.Count, c.count, f)
			}
		})
	}
}

// TestStrictBoundaryReads pins the strict-mode boundary conditions the
// fuzzer generates on purpose: distance 0 always reads zero, a distance
// exactly equal to both the bound and the executed count is legal, and
// the same program runs clean without strict mode where strict mode
// faults (so the oracle can attribute the fault to the program, not the
// emulator).
func TestStrictBoundaryReads(t *testing.T) {
	// 31 NOPs then a read at exactly distance 31 with bound 31.
	text := append(nops(31),
		enc(straight.Inst{Op: straight.RMOV, Src1: 31}),
		enc(straight.Inst{Op: straight.ADD, Src1: 0, Src2: 0}), // [0] zero reads
		enc(straight.Inst{Op: straight.SYS, Src1: 0, Imm: straight.SysExit}))
	m := New(image(text...))
	m.SetStrict(31)
	if _, err := m.Run(100); err != nil {
		t.Fatalf("boundary read at exactly the bound must not fault: %v", err)
	}
	if ok, code := m.Exited(); !ok || code != 0 {
		t.Fatalf("exited=%v code=%d", ok, code)
	}

	// The over-bound variant faults strictly but wraps silently (by
	// design) without strict mode.
	text2 := append(nops(33),
		enc(straight.Inst{Op: straight.RMOV, Src1: 32}),
		enc(straight.Inst{Op: straight.ADDI, Src1: 0, Imm: 0}),
		enc(straight.Inst{Op: straight.SYS, Src1: 1, Imm: straight.SysExit}))
	strictM := New(image(text2...))
	strictM.SetStrict(31)
	if _, err := strictM.Run(100); err == nil {
		t.Fatal("strict mode must fault on the over-bound read")
	}
	loose := New(image(text2...))
	if _, err := loose.Run(100); err != nil {
		t.Fatalf("non-strict mode must tolerate the over-bound read: %v", err)
	}
}

// TestCheckpointRestore exercises the step-wise checkpoint API: rewinding
// to a mid-run snapshot and replaying must reproduce the identical
// retirement stream and final state, and the checkpoint must stay valid
// across multiple restores.
func TestCheckpointRestore(t *testing.T) {
	// A program with memory traffic and SP updates so the snapshot covers
	// every architectural component.
	text := []uint32{
		enc(straight.Inst{Op: straight.SPADD, Imm: -16}),
		enc(straight.Inst{Op: straight.ADDI, Src1: 0, Imm: 7}),
		enc(straight.Inst{Op: straight.SW, Src1: 2, Src2: 1, Imm: 0}), // mem[sp] = 7
		enc(straight.Inst{Op: straight.LW, Src1: 3, Imm: 0}),          // reload
		enc(straight.Inst{Op: straight.MUL, Src1: 1, Src2: 3}),
		enc(straight.Inst{Op: straight.SPADD, Imm: 16}),
		enc(straight.Inst{Op: straight.SYS, Src1: 2, Imm: straight.SysExit}),
	}
	m := New(image(text...))
	m.SetStrict(0)

	var first []Retired
	m.TraceFn = func(r Retired) { first = append(first, r) }
	for i := 0; i < 3; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp := m.Checkpoint()
	if cp.Count() != 3 {
		t.Fatalf("checkpoint count = %d, want 3", cp.Count())
	}
	for m.Step() == nil {
	}
	wantExited, wantCode := m.Exited()
	wantStream := append([]Retired(nil), first...)

	for round := 0; round < 2; round++ {
		m.Restore(cp)
		first = first[:3]
		if m.InstCount() != 3 {
			t.Fatalf("restored count = %d, want 3", m.InstCount())
		}
		for m.Step() == nil {
		}
		gotExited, gotCode := m.Exited()
		if gotExited != wantExited || gotCode != wantCode {
			t.Fatalf("round %d: exit (%v,%d) != (%v,%d)", round, gotExited, gotCode, wantExited, wantCode)
		}
		if len(first) != len(wantStream) {
			t.Fatalf("round %d: stream length %d != %d", round, len(first), len(wantStream))
		}
		for i := range first {
			if first[i] != wantStream[i] {
				t.Fatalf("round %d: retirement %d differs: %+v != %+v", round, i, first[i], wantStream[i])
			}
		}
	}
	_ = io.Discard
}
