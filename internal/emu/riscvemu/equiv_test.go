package riscvemu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"testing"

	"straight/internal/emu"
	"straight/internal/isa/riscv"
	"straight/internal/program"
)

// Per-opcode equivalence: every defined op runs through Step on edge
// operands, and each architectural effect (destination, next PC, memory,
// statistics, trace record, fault text) is compared with the ISA
// package's value helpers, so Step's execute switch can be restructured
// without drifting from the semantics the cycle cores share.

// edges are the operand values every register-reading op is tried on:
// zero, small values, shift amounts at and past 32, and the signed and
// unsigned extremes (INT32_MIN / -1 is the division overflow case).
var edges = []uint32{0, 1, 5, 31, 32, 33, 63, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE}

const (
	rs1Reg = riscv.RegT0 // x5
	rs2Reg = riscv.RegT1 // x6
	rdReg  = riscv.RegT2 // x7
)

// probe is one Step of a single-instruction program.
type probe struct {
	m      *Machine
	before [32]uint32
	rec    Retired
	traced int
	err    error
	out    bytes.Buffer
}

// stepOnce runs inst at the entry with x5=a, x6=b and the given count.
func stepOnce(t *testing.T, inst riscv.Inst, a, b uint32, count uint64, setup func(*Machine)) *probe {
	t.Helper()
	im := program.New()
	im.Entry = im.TextBase
	im.Text = []uint32{riscv.MustEncode(inst)}
	p := &probe{m: New(im)}
	m := p.m
	m.SetOutput(&p.out)
	m.regs[rs1Reg], m.regs[rs2Reg] = a, b
	m.Count = count
	if setup != nil {
		setup(m)
	}
	p.before = m.regs
	m.TraceFn = func(r Retired) { p.rec = r; p.traced++ }
	p.err = m.Step()
	return p
}

// retired checks the effects every retiring instruction shares: one trace
// record naming the instruction, a register file that changed at most at
// rd (never x0), the count and PC advanced, and the per-op counter.
func (p *probe) retired(t *testing.T, inst riscv.Inst, count uint64, result, nextPC, memAddr uint32, wrote bool) {
	t.Helper()
	m := p.m
	pc := m.Image.Entry
	if p.err != nil && !(m.Halted && p.err == io.EOF) {
		t.Fatalf("%v: Step: %v", inst, p.err)
	}
	want := Retired{Count: count, PC: pc, Inst: inst, Result: result, NextPC: nextPC, MemAddr: memAddr}
	if p.traced != 1 || p.rec != want {
		t.Errorf("%v: trace %d× %+v, want 1× %+v", inst, p.traced, p.rec, want)
	}
	regs := p.before
	if wrote && inst.Rd != 0 {
		regs[inst.Rd] = result
	}
	if m.regs != regs {
		t.Errorf("%v: registers %v, want %v", inst, m.regs, regs)
	}
	if m.Pc != nextPC || m.Count != count+1 {
		t.Errorf("%v: pc=%#x count=%d, want pc=%#x count=%d", inst, m.Pc, m.Count, nextPC, count+1)
	}
	if m.stats.Retired[inst.Op] != 1 || m.stats.Total() != 1 {
		t.Errorf("%v: retired counters total %d, op %d", inst, m.stats.Total(), m.stats.Retired[inst.Op])
	}
}

// faulted checks that a faulting Step left no trace and no state change
// and returned the exact fault text.
func (p *probe) faulted(t *testing.T, inst riscv.Inst, kind emu.FaultKind, text string) {
	t.Helper()
	var f *emu.Fault
	if !errors.As(p.err, &f) || f.Kind != kind || f.Error() != text {
		t.Fatalf("%v: err %v, want %v fault %q", inst, p.err, kind, text)
	}
	m := p.m
	if p.traced != 0 || m.regs != p.before || m.Pc != m.Image.Entry || m.stats != (Stats{}) {
		t.Errorf("%v: fault changed state: traced=%d pc=%#x stats=%+v", inst, p.traced, m.Pc, m.stats)
	}
}

func TestStepOpcodeEquivalence(t *testing.T) {
	seen := make([]bool, riscv.NumOps)
	pc := uint32(program.DefaultTextBase)
	for op := riscv.Op(0); int(op) < riscv.NumOps; op++ {
		switch op {
		case riscv.ADD, riscv.SUB, riscv.SLL, riscv.SLT, riscv.SLTU, riscv.XOR, riscv.SRL, riscv.SRA, riscv.OR, riscv.AND,
			riscv.MUL, riscv.MULH, riscv.MULHSU, riscv.MULHU, riscv.DIV, riscv.DIVU, riscv.REM, riscv.REMU:
			for _, rd := range []uint8{rdReg, 0, rs1Reg} {
				inst := riscv.Inst{Op: op, Rd: rd, Rs1: rs1Reg, Rs2: rs2Reg}
				for _, a := range edges {
					for _, b := range edges {
						p := stepOnce(t, inst, a, b, 7, nil)
						p.retired(t, inst, 7, riscv.Eval(op, a, b), pc+4, 0, true)
						p.noMemStats(t, inst)
					}
				}
			}
		case riscv.ADDI, riscv.SLTI, riscv.SLTIU, riscv.XORI, riscv.ORI, riscv.ANDI, riscv.SLLI, riscv.SRLI, riscv.SRAI:
			imms := []int32{0, 1, -1, 5, 2047, -2048}
			if op == riscv.SLLI || op == riscv.SRLI || op == riscv.SRAI {
				imms = []int32{0, 1, 5, 31}
			}
			for _, rd := range []uint8{rdReg, 0} {
				for _, imm := range imms {
					inst := riscv.Inst{Op: op, Rd: rd, Rs1: rs1Reg, Imm: imm}
					for _, a := range edges {
						p := stepOnce(t, inst, a, 0, 0, nil)
						p.retired(t, inst, 0, riscv.Eval(op, a, uint32(imm)), pc+4, 0, true)
						p.noMemStats(t, inst)
					}
				}
			}
		case riscv.LUI, riscv.AUIPC:
			for _, imm := range []int32{0, 0x12345000, -4096, -1 << 31} {
				inst := riscv.Inst{Op: op, Rd: rdReg, Imm: imm}
				want := uint32(imm)
				if op == riscv.AUIPC {
					want += pc
				}
				p := stepOnce(t, inst, 0, 0, 3, nil)
				p.retired(t, inst, 3, want, pc+4, 0, true)
				p.noMemStats(t, inst)
			}
		case riscv.LB, riscv.LH, riscv.LW, riscv.LBU, riscv.LHU:
			testLoad(t, op)
		case riscv.SB, riscv.SH, riscv.SW:
			testStore(t, op)
		case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
			for _, imm := range []int32{8, -8, 6} {
				inst := riscv.Inst{Op: op, Rs1: rs1Reg, Rs2: rs2Reg, Imm: imm}
				for _, a := range edges {
					for _, b := range edges {
						p := stepOnce(t, inst, a, b, 0, nil)
						taken := riscv.BranchTaken(op, a, b)
						next := pc + 4
						if taken {
							next = pc + uint32(imm) // branch targets are not alignment-checked
						}
						p.retired(t, inst, 0, 0, next, 0, false)
						want := Stats{Branches: 1}
						if taken {
							want.TakenBranches = 1
						}
						want.Retired[op] = 1
						if p.m.stats != want {
							t.Errorf("%v a=%#x b=%#x: stats %+v", inst, a, b, p.m.stats)
						}
					}
				}
			}
		case riscv.JAL:
			for _, rd := range []uint8{riscv.RegRA, 0} {
				for _, imm := range []int32{8, -8, 0} {
					inst := riscv.Inst{Op: op, Rd: rd, Imm: imm}
					p := stepOnce(t, inst, 0, 0, 0, nil)
					p.retired(t, inst, 0, pc+4, pc+uint32(imm), 0, true)
					p.noMemStats(t, inst)
				}
				inst := riscv.Inst{Op: op, Rd: rd, Imm: 6}
				stepOnce(t, inst, 0, 0, 0, nil).faulted(t, inst, emu.FaultMisaligned,
					"riscvemu: misaligned fault at pc=0x00001000 insn#0: jump to misaligned address 0x00001006")
			}
		case riscv.JALR:
			for _, rd := range []uint8{riscv.RegRA, 0, rs1Reg} {
				for _, imm := range []int32{0, 1, 2, 4, -4} {
					inst := riscv.Inst{Op: op, Rd: rd, Rs1: rs1Reg, Imm: imm}
					for _, a := range edges {
						p := stepOnce(t, inst, a, 0, 0, nil)
						next := (a + uint32(imm)) &^ 1
						if next%4 != 0 {
							p.faulted(t, inst, emu.FaultMisaligned, p.m.faultText(emu.FaultMisaligned,
								"jump to misaligned address %#08x", next))
							continue
						}
						p.retired(t, inst, 0, pc+4, next, 0, true)
						p.noMemStats(t, inst)
					}
				}
			}
		case riscv.ECALL:
			testSyscalls(t)
		case riscv.EBREAK:
			inst := riscv.Inst{Op: op}
			stepOnce(t, inst, 0, 0, 9, nil).faulted(t, inst, emu.FaultDecode,
				"riscvemu: decode fault at pc=0x00001000 insn#9: ebreak")
		case riscv.FENCE:
			inst := riscv.Inst{Op: op}
			p := stepOnce(t, inst, 1, 2, 0, nil)
			p.retired(t, inst, 0, 0, pc+4, 0, false)
			p.noMemStats(t, inst)
		case riscv.ILLEGAL:
			// Unknown words predecode to ILLEGAL; the fault quotes the word.
			im := program.New()
			im.Entry = im.TextBase
			im.Text = []uint32{0xFFFFFFFF}
			m := New(im)
			m.TraceFn = func(Retired) { t.Error("illegal word retired") }
			err := m.Step()
			if want := "riscvemu: decode fault at pc=0x00001000 insn#0: illegal instruction 0xffffffff"; err == nil || err.Error() != want {
				t.Errorf("illegal: %v, want %q", err, want)
			}
		default:
			t.Errorf("op %v has no equivalence case", op)
			continue
		}
		seen[op] = true
	}
	for op, ok := range seen {
		if !ok {
			t.Errorf("op %v not exercised", riscv.Op(op))
		}
	}
}

// faultText formats a fault message the way Step words it, for cases
// whose address is computed.
func (m *Machine) faultText(kind emu.FaultKind, format string, args ...any) string {
	return m.Faultf(kind, format, args...).Error()
}

// noMemStats checks that a non-memory, non-branch op counted nothing but
// its own retirement.
func (p *probe) noMemStats(t *testing.T, inst riscv.Inst) {
	t.Helper()
	var want Stats
	want.Retired[inst.Op] = 1
	if p.m.stats != want {
		t.Errorf("%v: stats %+v", inst, p.m.stats)
	}
}

// dataWord is the memory word loads read and stores overwrite; each byte
// has its sign bit set differently so every extension is visible.
const dataWord = 0x80FF7F01

func testLoad(t *testing.T, op riscv.Op) {
	base := uint32(program.DefaultDataBase)
	width, _ := riscv.LoadWidth(op)
	pc := uint32(program.DefaultTextBase)
	for _, rd := range []uint8{rdReg, 0, rs1Reg} {
		for _, imm := range []int32{0, 1, 2, 3, 4, -4} {
			inst := riscv.Inst{Op: op, Rd: rd, Rs1: rs1Reg, Imm: imm}
			a := base + 4
			addr := a + uint32(imm)
			setup := func(m *Machine) {
				m.Memory.Store(base, 0xFFFF8000, 4)
				m.Memory.Store(base+4, dataWord, 4)
				m.Memory.Store(base+8, 0x7FFF0080, 4)
			}
			p := stepOnce(t, inst, a, 0, 0, setup)
			if addr%uint32(width) != 0 {
				p.faulted(t, inst, emu.FaultMisaligned, p.m.faultText(emu.FaultMisaligned, "misaligned %s at %#08x", op, addr))
				continue
			}
			want := riscv.ExtendLoad(op, p.m.Memory.Load(addr, width))
			p.retired(t, inst, 0, want, pc+4, addr, true)
			wantStats := Stats{Loads: 1}
			wantStats.Retired[op] = 1
			if p.m.stats != wantStats {
				t.Errorf("%v: stats %+v", inst, p.m.stats)
			}
		}
	}
	// Pinned texts, one per width.
	inst := riscv.Inst{Op: op, Rd: rdReg, Rs1: rs1Reg, Imm: 1}
	if width > 1 {
		stepOnce(t, inst, base, 0, 4, nil).faulted(t, inst, emu.FaultMisaligned,
			"riscvemu: misaligned fault at pc=0x00001000 insn#4: misaligned "+op.String()+" at 0x10000001")
	}
}

func testStore(t *testing.T, op riscv.Op) {
	base := uint32(program.DefaultDataBase)
	width := riscv.StoreWidth(op)
	pc := uint32(program.DefaultTextBase)
	for _, imm := range []int32{0, 1, 2, 3, -4} {
		inst := riscv.Inst{Op: op, Rs1: rs1Reg, Rs2: rs2Reg, Imm: imm}
		for _, b := range edges {
			a := base + 8
			addr := a + uint32(imm)
			setup := func(m *Machine) { m.Memory.Store(base+4, dataWord, 4); m.Memory.Store(base+8, dataWord, 4) }
			p := stepOnce(t, inst, a, b, 0, setup)
			if addr%uint32(width) != 0 {
				p.faulted(t, inst, emu.FaultMisaligned, p.m.faultText(emu.FaultMisaligned, "misaligned %s at %#08x", op, addr))
				if got := p.m.Memory.Load(base+8, 4); got != dataWord {
					t.Errorf("%v: faulting store wrote memory: %#x", inst, got)
				}
				continue
			}
			p.retired(t, inst, 0, 0, pc+4, addr, false)
			// Expected bytes: the old two words, with b's low width bytes at addr.
			want := make([]byte, 8)
			binary.LittleEndian.PutUint32(want, dataWord)
			binary.LittleEndian.PutUint32(want[4:], dataWord)
			var bb [4]byte
			binary.LittleEndian.PutUint32(bb[:], b)
			copy(want[addr-(base+4):], bb[:width])
			for i := range want {
				if got := p.m.Memory.LoadByte(base + 4 + uint32(i)); got != want[i] {
					t.Errorf("%v b=%#x: byte %d = %#x, want %#x", inst, b, i, got, want[i])
				}
			}
			wantStats := Stats{Stores: 1}
			wantStats.Retired[op] = 1
			if p.m.stats != wantStats {
				t.Errorf("%v: stats %+v", inst, p.m.stats)
			}
		}
	}
}

func testSyscalls(t *testing.T) {
	pc := uint32(program.DefaultTextBase)
	inst := riscv.Inst{Op: riscv.ECALL}
	for _, arg := range edges {
		for fn, out := range map[uint32]func(uint32) string{
			SysPutc: func(v uint32) string { return string([]byte{byte(v)}) },
			SysPuti: func(v uint32) string { return strconv.FormatInt(int64(int32(v)), 10) },
			SysPutu: func(v uint32) string { return strconv.FormatUint(uint64(v), 10) },
			SysPutx: func(v uint32) string { return strconv.FormatUint(uint64(v), 16) },
		} {
			setup := func(m *Machine) { m.regs[riscv.RegA7], m.regs[riscv.RegA0] = fn, arg }
			p := stepOnce(t, inst, 0, 0, 11, setup)
			p.retired(t, inst, 11, 0, pc+4, 0, false)
			p.noMemStats(t, inst)
			if got := p.out.String(); got != out(arg) {
				t.Errorf("syscall %d(%#x) printed %q, want %q", fn, arg, got, out(arg))
			}
		}
		// exit: halts, reports io.EOF, retires and traces.
		p := stepOnce(t, inst, 0, 0, 11, func(m *Machine) { m.regs[riscv.RegA7], m.regs[riscv.RegA0] = SysExit, arg })
		if p.err != io.EOF || !p.m.Halted || p.m.ExitCode != int32(arg) {
			t.Errorf("exit(%#x): err=%v halted=%v code=%d", arg, p.err, p.m.Halted, p.m.ExitCode)
		}
		p.retired(t, inst, 11, 0, pc+4, 0, false)
		if err := p.m.Step(); err != io.EOF || p.traced != 1 {
			t.Errorf("Step after exit: %v (traced %d)", err, p.traced)
		}
	}
	// cycle: writes the pre-increment count to a0, and the trace record
	// names a0 as the destination.
	p := stepOnce(t, inst, 0, 0, 0x1_2345_6789, func(m *Machine) { m.regs[riscv.RegA7] = SysCycle })
	p.retired(t, riscv.Inst{Op: riscv.ECALL, Rd: riscv.RegA0}, 0x1_2345_6789, 0x2345_6789, pc+4, 0, true)
	p.noMemStats(t, inst)
	// Unknown function codes fault before retiring.
	for _, fn := range []uint32{6, 0xFFFFFFFF} {
		p := stepOnce(t, inst, 0, 0, 2, func(m *Machine) { m.regs[riscv.RegA7] = fn })
		p.faulted(t, inst, emu.FaultBadSys, p.m.faultText(emu.FaultBadSys, "unknown syscall %d", fn))
	}
	stepOnce(t, inst, 0, 0, 2, func(m *Machine) { m.regs[riscv.RegA7] = 6 }).faulted(t, inst, emu.FaultBadSys,
		"riscvemu: bad-sys fault at pc=0x00001000 insn#2: unknown syscall 6")
}

// TestStepFetchFaults pins the fetch check's texts: a PC outside text and
// a misaligned PC, each reported before anything executes.
func TestStepFetchFaults(t *testing.T) {
	for _, c := range []struct {
		pc   uint32
		text string
	}{
		{0, "riscvemu: fetch fault at pc=0x00000000 insn#0: program: instruction fetch outside text at 0x00000000"},
		{0x1004, "riscvemu: fetch fault at pc=0x00001004 insn#0: program: instruction fetch outside text at 0x00001004"},
		{0x1002, "riscvemu: fetch fault at pc=0x00001002 insn#0: program: misaligned instruction fetch at 0x00001002"},
	} {
		im := program.New()
		im.Entry = c.pc
		im.Text = []uint32{riscv.MustEncode(riscv.Inst{Op: riscv.ADDI, Rd: 5, Rs1: 0, Imm: 1})}
		m := New(im)
		m.TraceFn = func(Retired) { t.Error("faulting fetch retired") }
		var f *emu.Fault
		if err := m.Step(); !errors.As(err, &f) || f.Kind != emu.FaultFetch || err.Error() != c.text {
			t.Errorf("pc=%#x: %v, want %q", c.pc, err, c.text)
		}
		if m.Count != 0 || m.stats != (Stats{}) {
			t.Errorf("pc=%#x: fetch fault changed state", c.pc)
		}
	}
	im := program.New()
	im.Entry = im.TextBase
	im.Text = []uint32{riscv.MustEncode(riscv.Inst{Op: riscv.JAL, Imm: 0})}
	if _, err := New(im).Run(64); err == nil || err.Error() != "riscvemu: insn-limit fault at pc=0x00001000 insn#64: instruction limit 64 reached without exit" {
		t.Errorf("limit: %v", err)
	}
}
