// Package riscvemu implements the architectural (functional) model of
// RV32IM used to validate the superscalar baseline: the golden reference
// for the RISC-V compiler backend and the SS cycle core.
package riscvemu

import (
	"io"

	"straight/internal/emu"
	"straight/internal/isa/riscv"
	"straight/internal/program"
)

// Syscall function codes, passed in a7 with the argument in a0. They
// mirror the STRAIGHT SYS functions so the same workload source produces
// identical console output on both ISAs.
const (
	SysExit  = 0
	SysPutc  = 1
	SysPuti  = 2
	SysCycle = 3
	SysPutu  = 4
	SysPutx  = 5
)

// Stats accumulates architectural execution statistics.
type Stats struct {
	Retired       [riscv.NumOps]uint64
	Branches      uint64
	TakenBranches uint64
	Loads         uint64
	Stores        uint64
}

// Total returns the total retired instruction count.
func (s *Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Retired {
		t += n
	}
	return t
}

// Machine is an RV32IM architectural machine.
type Machine struct {
	emu.Shell

	regs  [32]uint32
	stats Stats

	// dec caches the decode of every text word so Step pays the decoder
	// once per static instruction instead of once per dynamic one — the
	// dominant cost of the architectural loop when it serves as the
	// sampled simulator's fast-forward engine (DESIGN.md §16). riscv
	// decode is total (bad words decode to ILLEGAL), so no validity side
	// array is needed. Replaced wholesale, never mutated, so Clone shares.
	dec []riscv.Inst //lint:resetless predecoded text cache, keyed to the image; Reset rebuilds it on image change

	// TraceFn, when non-nil, receives every retired instruction.
	TraceFn func(Retired)
}

// Retired describes one architecturally executed instruction.
type Retired struct {
	Count  uint64
	PC     uint32
	Inst   riscv.Inst
	Result uint32 // value written to Rd (0 if none)
	NextPC uint32
	// MemAddr is the effective address of a load or store (else 0).
	MemAddr uint32
}

// New creates a machine for the image with an isolated memory copy.
// SP (x2) starts at the top of the stack.
func New(im *program.Image) *Machine {
	m := &Machine{Shell: emu.NewShell("riscvemu", im)}
	m.regs[riscv.RegSP] = program.DefaultStackTop
	m.predecode()
	return m
}

// predecode decodes every text word once. A fresh slice is allocated on
// every rebuild so clones sharing the old cache stay consistent.
func (m *Machine) predecode() {
	dec := make([]riscv.Inst, len(m.Image.Text))
	for i, w := range m.Image.Text {
		dec[i] = riscv.Decode(w)
	}
	m.dec = dec
}

// Reset returns the machine to power-on state for img (nil = rerun the
// current image), reusing the sparse memory's page frames and the I/O
// buffer. Output is configuration and survives; TraceFn is cleared (it
// is re-armed per use).
func (m *Machine) Reset(img *program.Image) {
	if m.Shell.Reset(img) || m.dec == nil {
		m.predecode()
	}
	m.regs = [32]uint32{}
	m.regs[riscv.RegSP] = program.DefaultStackTop
	m.stats = Stats{}
	m.TraceFn = nil
}

// Reg returns register x[i].
//
//lint:hotpath
func (m *Machine) Reg(i int) uint32 { return m.regs[i] }

// Stats returns the accumulated statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fetchFault() error { return m.FetchFault() }

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fault(kind emu.FaultKind, format string, args ...any) error {
	return m.Faultf(kind, format, args...)
}

// Step executes one instruction. It returns io.EOF after exit.
//
// Execution is one switch on the opcode that computes the result, the
// next PC and the memory effect directly: it is the fast-forward and
// lockstep-oracle hot path, run once per simulated instruction
// (DESIGN.md §6.1). The common ALU ops are written out; the rarer
// multiply-high and divide ops call riscv.Eval, which the cycle cores
// share.
//
//lint:hotpath
func (m *Machine) Step() error {
	if m.Halted {
		return io.EOF
	}
	i, ok := m.Fetch(len(m.dec))
	if !ok {
		return m.fetchFault()
	}
	inst := m.dec[i]
	op := inst.Op
	pc := m.Pc
	rs1 := m.regs[inst.Rs1]
	rs2 := m.regs[inst.Rs2]
	imm := uint32(inst.Imm)
	nextPC := pc + 4
	// rd is the register written, 0 for none: x0 is never written.
	rd := inst.Rd
	var result, memAddr uint32

	switch op {
	case riscv.ADD:
		result = rs1 + rs2
	case riscv.SUB:
		result = rs1 - rs2
	case riscv.SLL:
		result = rs1 << (rs2 & 31)
	case riscv.SLT:
		result = b2u(int32(rs1) < int32(rs2))
	case riscv.SLTU:
		result = b2u(rs1 < rs2)
	case riscv.XOR:
		result = rs1 ^ rs2
	case riscv.SRL:
		result = rs1 >> (rs2 & 31)
	case riscv.SRA:
		result = uint32(int32(rs1) >> (rs2 & 31))
	case riscv.OR:
		result = rs1 | rs2
	case riscv.AND:
		result = rs1 & rs2
	case riscv.MUL:
		result = rs1 * rs2
	case riscv.MULH, riscv.MULHSU, riscv.MULHU, riscv.DIV, riscv.DIVU, riscv.REM, riscv.REMU:
		result = riscv.Eval(op, rs1, rs2)
	case riscv.ADDI:
		result = rs1 + imm
	case riscv.SLTI:
		result = b2u(int32(rs1) < inst.Imm)
	case riscv.SLTIU:
		result = b2u(rs1 < imm)
	case riscv.XORI:
		result = rs1 ^ imm
	case riscv.ORI:
		result = rs1 | imm
	case riscv.ANDI:
		result = rs1 & imm
	case riscv.SLLI:
		result = rs1 << (imm & 31)
	case riscv.SRLI:
		result = rs1 >> (imm & 31)
	case riscv.SRAI:
		result = uint32(int32(rs1) >> (imm & 31))
	case riscv.LUI:
		result = imm
	case riscv.AUIPC:
		result = pc + imm
	case riscv.LW:
		memAddr = rs1 + imm
		if memAddr%4 != 0 {
			return m.misaligned(op, memAddr)
		}
		result = m.Memory.Load(memAddr, 4)
		m.stats.Loads++
	case riscv.LH, riscv.LHU:
		memAddr = rs1 + imm
		if memAddr%2 != 0 {
			return m.misaligned(op, memAddr)
		}
		result = riscv.ExtendLoad(op, m.Memory.Load(memAddr, 2))
		m.stats.Loads++
	case riscv.LB, riscv.LBU:
		memAddr = rs1 + imm
		result = riscv.ExtendLoad(op, m.Memory.Load(memAddr, 1))
		m.stats.Loads++
	case riscv.SW, riscv.SH, riscv.SB:
		memAddr = rs1 + imm
		width := riscv.StoreWidth(op)
		if memAddr%uint32(width) != 0 {
			return m.misaligned(op, memAddr)
		}
		m.Memory.Store(memAddr, rs2, width)
		m.stats.Stores++
		rd = 0
	case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
		m.stats.Branches++
		if riscv.BranchTaken(op, rs1, rs2) {
			m.stats.TakenBranches++
			nextPC = pc + imm
		}
		rd = 0
	case riscv.JAL, riscv.JALR:
		result = nextPC
		if op == riscv.JAL {
			nextPC = pc + imm
		} else {
			nextPC = (rs1 + imm) &^ 1
		}
		if nextPC%4 != 0 {
			return m.fault(emu.FaultMisaligned, "jump to misaligned address %#08x", nextPC)
		}
	case riscv.ECALL:
		if err := m.syscall(); err != nil {
			return err
		}
		rd = 0
		if m.regs[riscv.RegA7] == SysCycle {
			result = uint32(m.Count)
			rd = riscv.RegA0
			inst.Rd = riscv.RegA0
		}
	case riscv.FENCE:
		rd = 0
	case riscv.EBREAK:
		return m.fault(emu.FaultDecode, "ebreak")
	default:
		return m.fault(emu.FaultDecode, "illegal instruction %#08x", m.Image.Text[i])
	}

	if rd != 0 {
		m.regs[rd] = result
	}
	m.Pc = nextPC
	m.Count++
	m.stats.Retired[op]++
	if m.TraceFn != nil {
		m.TraceFn(Retired{Count: m.Count - 1, PC: pc, Inst: inst, Result: result, NextPC: nextPC, MemAddr: memAddr})
	}
	if m.Halted {
		return io.EOF
	}
	return nil
}

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) misaligned(op riscv.Op, addr uint32) error {
	return m.fault(emu.FaultMisaligned, "misaligned %s at %#08x", op, addr)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) syscall() error {
	fn := m.regs[riscv.RegA7]
	arg := m.regs[riscv.RegA0]
	switch fn {
	case SysExit:
		m.ExitCode = int32(arg)
		m.Halted = true
	case SysPutc:
		m.Putc(byte(arg))
	case SysPuti:
		m.Puti(int32(arg))
	case SysPutu:
		m.Putu(arg)
	case SysPutx:
		m.Putx(arg)
	case SysCycle:
		// handled by caller (writes a0)
	default:
		return m.fault(emu.FaultBadSys, "unknown syscall %d", fn)
	}
	return nil
}

// Clone returns an independent copy of the architectural state (fresh
// statistics, discarded output) for oracle replay.
func (m *Machine) Clone() *Machine {
	return &Machine{Shell: m.Shell.Clone(), regs: m.regs, dec: m.dec}
}

// Checkpoint is an opaque snapshot of the architectural state (PC,
// registers, count, memory, exit status). Statistics and the output
// writer are not part of the snapshot.
type Checkpoint struct {
	emu.Snapshot
	regs [32]uint32
}

// Reg returns checkpointed register x[i].
func (c *Checkpoint) Reg(i int) uint32 { return c.regs[i] }

// Checkpoint captures the architectural state so execution can later be
// rewound with Restore. The snapshot is independent of the machine and
// can be restored any number of times.
func (m *Machine) Checkpoint() *Checkpoint {
	return &Checkpoint{Snapshot: m.Snapshot(), regs: m.regs}
}

// Restore rewinds the machine to a checkpoint taken earlier on the same
// image, reusing the machine's page frames rather than reallocating.
// The checkpoint remains valid for further Restore calls.
func (m *Machine) Restore(c *Checkpoint) {
	m.Shell.Restore(&c.Snapshot)
	m.regs = c.regs
}

// Run executes until exit, a fault, or maxInsns instructions. Reaching
// the limit without exit is an error.
func (m *Machine) Run(maxInsns uint64) (uint64, error) {
	start := m.Count
	for m.Count-start < maxInsns {
		if err := m.Step(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return m.Count - start, err
		}
	}
	return m.Count - start, m.fault(emu.FaultLimit, "instruction limit %d reached without exit", maxInsns)
}

// RunUntil executes until the retired instruction count reaches target,
// the program exits, or a fault occurs. Unlike Run, stopping at the
// target is success, not an error: this is the fast-forward primitive of
// the sampled simulator (internal/sampling), which pauses execution at
// interval boundaries to take checkpoints. Step executes exactly one
// instruction, so the stop lands exactly on target.
//
//lint:hotpath
func (m *Machine) RunUntil(target uint64) error {
	for m.Count < target && !m.Halted {
		if err := m.Step(); err != nil && err != io.EOF {
			return err
		}
	}
	return nil
}
