package straightemu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"testing"

	"straight/internal/emu"
	"straight/internal/isa/straight"
	"straight/internal/program"
)

// Per-opcode equivalence: every defined op runs through Step on edge
// operands, with strict mode off and on, and each architectural effect
// (result slot, SP, next PC, memory, statistics including the operand
// distance histogram, trace record, fault text) is compared with the
// ISA package's value helpers, so Step's execute switch can be
// restructured without drifting from the semantics the cycle core
// shares.

// edges are the operand values every source-reading op is tried on:
// zero, small values, shift amounts at and past 32, and the signed and
// unsigned extremes (INT32_MIN / -1 is the division overflow case).
var edges = []uint32{0, 1, 5, 31, 32, 33, 63, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE}

// srcPairs are the (src1, src2) distances tried: adjacent producers, the
// ISA maximum, and the zero register.
var srcPairs = [][2]uint16{{1, 2}, {straight.MaxDistance, 3}, {0, 1}, {4, 0}}

// Every probe starts at a dynamic count past MaxDistance, so strict mode
// accepts every distance and only the bound and uninitialized-slot cases
// below fault.
const (
	probeCount = 3000
	probeSP    = 0x7FFF_0000
)

type probe struct {
	m      *Machine
	before [ringSize]uint32
	rec    Retired
	traced int
	err    error
	out    bytes.Buffer
}

// stepOnce runs inst at the entry with [src1]=a and [src2]=b.
func stepOnce(t *testing.T, inst straight.Inst, a, b uint32, strict bool, setup func(*Machine)) *probe {
	t.Helper()
	p := &probe{m: New(image(enc(inst)))}
	m := p.m
	m.SetOutput(&p.out)
	if strict {
		m.SetStrict(0)
	}
	m.Count = probeCount
	m.sp = probeSP
	for i := range m.ring {
		m.ring[i] = 0xDEAD0000 | uint32(i)
	}
	if inst.Src2 != 0 {
		m.ring[(probeCount-uint64(inst.Src2))&(ringSize-1)] = b
	}
	if inst.Src1 != 0 {
		m.ring[(probeCount-uint64(inst.Src1))&(ringSize-1)] = a
	}
	if setup != nil {
		setup(m)
	}
	p.before = m.ring
	m.TraceFn = func(r Retired) { p.rec = r; p.traced++ }
	p.err = m.Step()
	return p
}

// reads lists the distances inst reads, in order, when it executes.
func reads(inst straight.Inst) []uint16 {
	if inst.Op == straight.SYS {
		switch inst.Imm {
		case straight.SysExit, straight.SysPutc, straight.SysPuti, straight.SysPutu, straight.SysPutx:
			return []uint16{inst.Src1}
		}
		return nil
	}
	switch inst.Op.Format() {
	case straight.FmtR, straight.FmtS:
		return []uint16{inst.Src1, inst.Src2}
	case straight.FmtI, straight.FmtJR:
		return []uint16{inst.Src1}
	}
	return nil
}

// readStats is the operand-distance part of the statistics inst leaves.
func readStats(inst straight.Inst) Stats {
	var s Stats
	for _, d := range reads(inst) {
		if d != 0 {
			s.DistanceHist[d]++
			s.MaxObservedDistance = max(s.MaxObservedDistance, d)
		}
	}
	return s
}

// retired checks the effects every retiring instruction has: one trace
// record, the result in the count's ring slot and nothing else written,
// count and PC advanced, and exactly the expected statistics.
func (p *probe) retired(t *testing.T, inst straight.Inst, result, nextPC, sp, memAddr uint32, stats Stats) {
	t.Helper()
	m := p.m
	pc := m.Image.Entry
	if p.err != nil && !(m.Halted && p.err == io.EOF) {
		t.Fatalf("%v: Step: %v", inst, p.err)
	}
	want := Retired{Count: probeCount, PC: pc, Inst: inst, Result: result, NextPC: nextPC, SP: sp, MemAddr: memAddr}
	if p.traced != 1 || p.rec != want {
		t.Errorf("%v: trace %d× %+v, want 1× %+v", inst, p.traced, p.rec, want)
	}
	ring := p.before
	ring[probeCount&(ringSize-1)] = result
	if m.ring != ring {
		t.Errorf("%v: result ring changed beyond slot %d", inst, probeCount&(ringSize-1))
	}
	if m.Pc != nextPC || m.Count != probeCount+1 || m.sp != sp {
		t.Errorf("%v: pc=%#x count=%d sp=%#x, want pc=%#x count=%d sp=%#x",
			inst, m.Pc, m.Count, m.sp, nextPC, probeCount+1, sp)
	}
	stats.Retired[inst.Op]++
	rs := readStats(inst)
	stats.DistanceHist, stats.MaxObservedDistance = rs.DistanceHist, rs.MaxObservedDistance
	if m.stats != stats {
		t.Errorf("%v: stats %+v, want %+v", inst, m.stats, stats)
	}
}

// faulted checks the exact fault text and that the fault retired
// nothing: no trace, ring, PC, count or SP change, and only the
// statistics given (operand reads made before the fault still count).
func (p *probe) faulted(t *testing.T, inst straight.Inst, kind emu.FaultKind, text string, stats Stats) {
	t.Helper()
	var f *emu.Fault
	if !errors.As(p.err, &f) || f.Kind != kind || f.Error() != text {
		t.Fatalf("%v: err %v, want %v fault %q", inst, p.err, kind, text)
	}
	m := p.m
	if p.traced != 0 || m.ring != p.before || m.Pc != m.Image.Entry || m.Count != probeCount || m.sp != probeSP {
		t.Errorf("%v: fault changed state: traced=%d pc=%#x count=%d sp=%#x", inst, p.traced, m.Pc, m.Count, m.sp)
	}
	if m.stats != stats {
		t.Errorf("%v: fault stats %+v, want %+v", inst, m.stats, stats)
	}
}

func faultText(kind emu.FaultKind, count uint64, msg string) string {
	return (&emu.Fault{Emu: "straightemu", Kind: kind, PC: program.DefaultTextBase, Count: count, Msg: msg}).Error()
}

func TestStepOpcodeEquivalence(t *testing.T) {
	for _, strict := range []bool{false, true} {
		seen := make([]bool, straight.NumOps)
		for op := straight.Op(0); int(op) < straight.NumOps; op++ {
			if !opEquivalence(t, op, strict) {
				t.Errorf("op %v has no equivalence case", op)
				continue
			}
			seen[op] = true
		}
		for op, ok := range seen {
			if !ok {
				t.Errorf("op %v not exercised", straight.Op(op))
			}
		}
	}
}

func opEquivalence(t *testing.T, op straight.Op, strict bool) bool {
	pc := uint32(program.DefaultTextBase)
	next := pc + program.InstructionBytes
	var none Stats
	switch op {
	case straight.NOP:
		inst := straight.Inst{Op: op}
		stepOnce(t, inst, 0, 0, strict, nil).retired(t, inst, 0, next, probeSP, 0, none)
	case straight.ADD, straight.SUB, straight.AND, straight.OR, straight.XOR, straight.SLL, straight.SRL, straight.SRA,
		straight.SLT, straight.SLTU, straight.MUL, straight.MULH, straight.MULHU,
		straight.DIV, straight.DIVU, straight.REM, straight.REMU:
		for _, s := range srcPairs {
			inst := straight.Inst{Op: op, Src1: s[0], Src2: s[1]}
			for _, a := range edges {
				for _, b := range edges {
					ra, rb := a, b
					if s[0] == 0 {
						ra = 0
					}
					if s[1] == 0 {
						rb = 0
					}
					p := stepOnce(t, inst, a, b, strict, nil)
					p.retired(t, inst, straight.EvalALU(op, ra, rb), next, probeSP, 0, none)
				}
			}
		}
	case straight.ADDI, straight.ANDI, straight.ORI, straight.XORI, straight.SLLI, straight.SRLI, straight.SRAI,
		straight.SLTI, straight.SLTIU:
		for _, imm := range []int32{0, 1, -1, 5, 31, 32, 33, straight.ImmMaxI, straight.ImmMinI} {
			for _, d := range []uint16{1, straight.MaxDistance, 0} {
				inst := straight.Inst{Op: op, Src1: d, Imm: imm}
				for _, a := range edges {
					ra := a
					if d == 0 {
						ra = 0
					}
					p := stepOnce(t, inst, a, 0, strict, nil)
					p.retired(t, inst, straight.EvalALUImm(op, ra, imm), next, probeSP, 0, none)
				}
			}
		}
	case straight.LUI:
		for _, imm := range []int32{0, 1, 0x800000, straight.LUIMax} {
			inst := straight.Inst{Op: op, Imm: imm}
			stepOnce(t, inst, 0, 0, strict, nil).retired(t, inst, straight.LUIValue(imm), next, probeSP, 0, none)
		}
	case straight.LW, straight.LH, straight.LHU, straight.LB, straight.LBU:
		testLoad(t, op, strict)
	case straight.SW, straight.SH, straight.SB:
		testStore(t, op, strict)
	case straight.BEZ, straight.BNZ:
		for _, imm := range []int32{2, -2, 0, straight.ImmMaxI} {
			for _, d := range []uint16{1, 0} {
				inst := straight.Inst{Op: op, Src1: d, Imm: imm}
				for _, a := range edges {
					v := a
					if d == 0 {
						v = 0
					}
					p := stepOnce(t, inst, a, 0, strict, nil)
					want := Stats{Branches: 1}
					res, to := uint32(0), next
					if straight.BranchTaken(op, v) {
						want.TakenBranches = 1
						res, to = 1, pc+uint32(imm)*program.InstructionBytes
					}
					p.retired(t, inst, res, to, probeSP, 0, want)
				}
			}
		}
	case straight.J, straight.JAL:
		for _, imm := range []int32{0, 5, -5, straight.ImmMaxJ, straight.ImmMinJ} {
			inst := straight.Inst{Op: op, Imm: imm}
			res := uint32(0)
			if op == straight.JAL {
				res = next
			}
			stepOnce(t, inst, 0, 0, strict, nil).retired(t, inst, res, pc+uint32(imm)*program.InstructionBytes, probeSP, 0, none)
		}
	case straight.JR, straight.JALR:
		for _, d := range []uint16{1, straight.MaxDistance, 0} {
			inst := straight.Inst{Op: op, Src1: d}
			for _, a := range edges {
				to := a
				if d == 0 {
					to = 0
				}
				p := stepOnce(t, inst, a, 0, strict, nil)
				if to%program.InstructionBytes != 0 {
					p.faulted(t, inst, emu.FaultMisaligned, faultText(emu.FaultMisaligned, probeCount,
						"jump to misaligned address "+hex08(to)), readStats(inst))
					continue
				}
				res := uint32(0)
				if op == straight.JALR {
					res = next
				}
				p.retired(t, inst, res, to, probeSP, 0, none)
			}
		}
	case straight.RMOV:
		for _, d := range []uint16{1, straight.MaxDistance, 0} {
			inst := straight.Inst{Op: op, Src1: d}
			for _, a := range edges {
				want := a
				if d == 0 {
					want = 0
				}
				stepOnce(t, inst, a, 0, strict, nil).retired(t, inst, want, next, probeSP, 0, none)
			}
		}
	case straight.SPADD:
		for _, imm := range []int32{0, 16, -16, 3, straight.ImmMaxJ, straight.ImmMinJ} {
			inst := straight.Inst{Op: op, Imm: imm}
			sp := uint32(probeSP) + uint32(imm)
			stepOnce(t, inst, 0, 0, strict, nil).retired(t, inst, sp, next, sp, 0, none)
		}
	case straight.SYS:
		testSys(t, strict)
	default:
		return false
	}
	return true
}

func hex08(v uint32) string {
	s := strconv.FormatUint(uint64(v), 16)
	for len(s) < 8 {
		s = "0" + s
	}
	return "0x" + s
}

// dataWord is the memory word loads read and stores overwrite; each byte
// has its sign bit set differently so every extension is visible.
const dataWord = 0x80FF7F01

func testLoad(t *testing.T, op straight.Op, strict bool) {
	base := uint32(program.DefaultDataBase)
	width, _ := straight.LoadWidth(op)
	next := uint32(program.DefaultTextBase) + program.InstructionBytes
	setup := func(m *Machine) {
		m.Memory.Store(base, 0xFFFF8000, 4)
		m.Memory.Store(base+4, dataWord, 4)
		m.Memory.Store(base+8, 0x7FFF0080, 4)
	}
	for _, imm := range []int32{0, 1, 2, 3, 4, -4} {
		inst := straight.Inst{Op: op, Src1: 1, Imm: imm}
		a := base + 4
		addr := a + uint32(imm)
		p := stepOnce(t, inst, a, 0, strict, setup)
		if addr%uint32(width) != 0 {
			p.faulted(t, inst, emu.FaultMisaligned, faultText(emu.FaultMisaligned, probeCount,
				"misaligned "+op.String()+" at address "+hex08(addr)), readStats(inst))
			continue
		}
		want := straight.ExtendLoad(op, p.m.Memory.Load(addr, width))
		p.retired(t, inst, want, next, probeSP, addr, Stats{Loads: 1})
	}
	if width > 1 {
		inst := straight.Inst{Op: op, Src1: 1, Imm: 1}
		stepOnce(t, inst, base, 0, strict, nil).faulted(t, inst, emu.FaultMisaligned,
			"straightemu: misaligned fault at pc=0x00001000 insn#3000: misaligned "+op.String()+" at address 0x10000001",
			readStats(inst))
	}
}

func testStore(t *testing.T, op straight.Op, strict bool) {
	base := uint32(program.DefaultDataBase)
	width := straight.StoreWidth(op)
	next := uint32(program.DefaultTextBase) + program.InstructionBytes
	setup := func(m *Machine) { m.Memory.Store(base+4, dataWord, 4); m.Memory.Store(base+8, dataWord, 4) }
	for _, imm := range []int32{0, 1, 2, 3, -4, straight.ImmMaxS} {
		inst := straight.Inst{Op: op, Src1: 1, Src2: 2, Imm: imm}
		for _, b := range edges {
			a := base + 8
			addr := a + uint32(imm)
			p := stepOnce(t, inst, a, b, strict, setup)
			if addr%uint32(width) != 0 {
				p.faulted(t, inst, emu.FaultMisaligned, faultText(emu.FaultMisaligned, probeCount,
					"misaligned "+op.String()+" at address "+hex08(addr)), readStats(inst))
				if got := p.m.Memory.Load(base+8, 4); got != dataWord {
					t.Errorf("%v: faulting store wrote memory: %#x", inst, got)
				}
				continue
			}
			// Stores return the stored value (paper §III-A).
			p.retired(t, inst, b, next, probeSP, addr, Stats{Stores: 1})
			want := make([]byte, 16)
			binary.LittleEndian.PutUint32(want[4:], dataWord)
			binary.LittleEndian.PutUint32(want[8:], dataWord)
			var bb [4]byte
			binary.LittleEndian.PutUint32(bb[:], b)
			copy(want[addr-base:], bb[:width])
			for i := range want {
				if got := p.m.Memory.LoadByte(base + uint32(i)); got != want[i] {
					t.Errorf("%v b=%#x: byte %d = %#x, want %#x", inst, b, i, got, want[i])
				}
			}
		}
	}
}

func testSys(t *testing.T, strict bool) {
	next := uint32(program.DefaultTextBase) + program.InstructionBytes
	var none Stats
	prints := map[int32]func(uint32) string{
		straight.SysPutc: func(v uint32) string { return string([]byte{byte(v)}) },
		straight.SysPuti: func(v uint32) string { return strconv.FormatInt(int64(int32(v)), 10) },
		straight.SysPutu: func(v uint32) string { return strconv.FormatUint(uint64(v), 10) },
		straight.SysPutx: func(v uint32) string { return strconv.FormatUint(uint64(v), 16) },
	}
	for _, a := range edges {
		for fn, out := range prints {
			inst := straight.Inst{Op: straight.SYS, Src1: 1, Src2: 2, Imm: fn}
			p := stepOnce(t, inst, a, 0, strict, nil)
			p.retired(t, inst, 0, next, probeSP, 0, none)
			if got := p.out.String(); got != out(a) {
				t.Errorf("SYS %d(%#x) printed %q, want %q", fn, a, got, out(a))
			}
		}
		inst := straight.Inst{Op: straight.SYS, Src1: 1, Imm: straight.SysExit}
		p := stepOnce(t, inst, a, 0, strict, nil)
		if p.err != io.EOF || !p.m.Halted || p.m.ExitCode != int32(a) {
			t.Errorf("exit(%#x): err=%v halted=%v code=%d", a, p.err, p.m.Halted, p.m.ExitCode)
		}
		p.retired(t, inst, 0, next, probeSP, 0, none)
		if err := p.m.Step(); err != io.EOF || p.traced != 1 {
			t.Errorf("Step after exit: %v (traced %d)", err, p.traced)
		}
	}
	// Cycle reads no operand and returns the pre-increment count.
	inst := straight.Inst{Op: straight.SYS, Src1: 1, Imm: straight.SysCycle}
	stepOnce(t, inst, 7, 0, strict, nil).retired(t, inst, probeCount, next, probeSP, 0, none)
	for _, fn := range []int32{6, 15} {
		inst := straight.Inst{Op: straight.SYS, Src1: 1, Imm: fn}
		stepOnce(t, inst, 0, 0, strict, nil).faulted(t, inst, emu.FaultBadSys,
			faultText(emu.FaultBadSys, probeCount, "unknown SYS function "+strconv.Itoa(int(fn))), none)
	}
	inst = straight.Inst{Op: straight.SYS, Src1: 1, Imm: 6}
	stepOnce(t, inst, 0, 0, strict, nil).faulted(t, inst, emu.FaultBadSys,
		"straightemu: bad-sys fault at pc=0x00001000 insn#3000: unknown SYS function 6", none)
}

// TestStepFaultTexts pins the faults that do not depend on an opcode's
// operands: fetch, decode, strict mode and the instruction limit.
func TestStepFaultTexts(t *testing.T) {
	add := enc(straight.Inst{Op: straight.ADD, Src1: 1, Src2: 6})
	cases := []struct {
		name   string
		entry  uint32
		word   uint32
		count  uint64
		strict int
		kind   emu.FaultKind
		text   string
	}{
		{"outside-text", 0, add, 0, 0, emu.FaultFetch,
			"straightemu: fetch fault at pc=0x00000000 insn#0: program: instruction fetch outside text at 0x00000000"},
		{"past-text", 0x1004, add, 0, 0, emu.FaultFetch,
			"straightemu: fetch fault at pc=0x00001004 insn#0: program: instruction fetch outside text at 0x00001004"},
		{"misaligned-pc", 0x1002, add, 0, 0, emu.FaultFetch,
			"straightemu: fetch fault at pc=0x00001002 insn#0: program: misaligned instruction fetch at 0x00001002"},
		{"bad-opcode", 0x1000, 0xFF000000, 2, 0, emu.FaultDecode,
			"straightemu: decode fault at pc=0x00001000 insn#2: straight: decode: invalid opcode byte 0xff"},
		{"first-bad-opcode", 0x1000, uint32(straight.NumOps) << 24, 2, 0, emu.FaultDecode,
			"straightemu: decode fault at pc=0x00001000 insn#2: straight: decode: invalid opcode byte 0x2d"},
		{"strict-bound", 0x1000, add, 100, 5, emu.FaultStrictBound,
			"straightemu: strict-over-bound fault at pc=0x00001000 insn#100: strict: ADD reads distance 6 beyond bound 5"},
		{"strict-uninit", 0x1000, add, 5, 0, emu.FaultStrictUninit,
			"straightemu: strict-uninitialized fault at pc=0x00001000 insn#5: strict: ADD reads [6] but only 5 instruction(s) have executed (never-written slot)"},
	}
	for _, c := range cases {
		im := image(c.word)
		im.Entry = c.entry
		m := New(im)
		if c.strict != 0 || c.kind == emu.FaultStrictUninit {
			m.SetStrict(c.strict)
		}
		m.Count = c.count
		m.TraceFn = func(Retired) { t.Errorf("%s: faulting step retired", c.name) }
		var f *emu.Fault
		if err := m.Step(); !errors.As(err, &f) || f.Kind != c.kind || err.Error() != c.text {
			t.Errorf("%s: %v, want %q", c.name, err, c.text)
		}
		if m.Count != c.count || m.stats != (Stats{}) {
			t.Errorf("%s: fault changed state", c.name)
		}
	}
	m := New(image(enc(straight.Inst{Op: straight.J, Imm: 0})))
	if _, err := m.Run(64); err == nil || err.Error() != "straightemu: insn-limit fault at pc=0x00001000 insn#64: instruction limit 64 reached without exit" {
		t.Errorf("limit: %v", err)
	}
}
