// Package straightemu implements the architectural (functional) model of
// the STRAIGHT ISA. It is the golden reference: the compiler test suite
// checks generated code against it, and the cycle-accurate core
// cross-validates every retired instruction against it.
//
// Architecturally, STRAIGHT state is: the PC, the stack pointer SP, the
// memory, and the results of the last MaxDistance dynamically executed
// instructions (a sliding window — each instruction writes exactly one new
// value and the oldest becomes dead). The emulator models the window as a
// ring buffer indexed by the dynamic instruction count.
package straightemu

import (
	"io"

	"straight/internal/emu"
	"straight/internal/isa/straight"
	"straight/internal/program"
)

// ringSize is the result-window ring size; it must exceed MaxDistance and
// be a power of two so the index math is a mask.
const ringSize = 2048

// Stats accumulates architectural execution statistics used by the
// instruction-mix and operand-distance experiments (paper Fig 15 and 16).
type Stats struct {
	// Retired counts executed instructions per opcode.
	Retired [straight.NumOps]uint64
	// DistanceHist[d] counts source operands read at distance d
	// (distance 0 — the zero register — is excluded, matching the
	// paper's "distance between producer and consumer" metric).
	DistanceHist [straight.MaxDistance + 1]uint64
	// MaxObservedDistance is the largest non-zero distance read.
	MaxObservedDistance uint16
	// Branches and TakenBranches count conditional branches.
	Branches      uint64
	TakenBranches uint64
	// Loads and Stores count memory operations.
	Loads  uint64
	Stores uint64
}

// Total returns the total retired instruction count in the stats.
func (s *Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Retired {
		t += n
	}
	return t
}

// Machine is a STRAIGHT architectural machine.
type Machine struct {
	emu.Shell

	sp   uint32
	ring [ringSize]uint32 // results, indexed by dynamic instruction count

	stats Stats

	// strictBound, when non-zero, makes Step fault on any source read
	// beyond that distance or of a slot no instruction has written yet —
	// the dynamic counterpart of the static checks in internal/sverify.
	strictBound uint16 //lint:resetless checking configuration, survives Reset by design

	// dec caches the decode of every text word so Step pays the decoder
	// once per static instruction instead of once per dynamic one — the
	// dominant cost of the architectural loop when it serves as the
	// sampled simulator's fast-forward engine (DESIGN.md §16). Replaced
	// wholesale (never mutated in place) so Clone can share it.
	dec []straight.Inst //lint:resetless predecoded text cache, keyed to the image; Reset rebuilds it on image change

	// TraceFn, when non-nil, receives every retired instruction. The cycle
	// simulator's cross-validation and the examples' tracing hook in here.
	TraceFn func(Retired)
}

// Retired describes one architecturally executed instruction.
type Retired struct {
	Count  uint64 // dynamic instruction number (destination id)
	PC     uint32
	Inst   straight.Inst
	Result uint32
	NextPC uint32
	SP     uint32 // SP after the instruction
	// MemAddr is the effective address of a load or store (else 0).
	MemAddr uint32
}

// New creates a machine for the image with an isolated memory copy.
func New(im *program.Image) *Machine {
	m := &Machine{Shell: emu.NewShell("straightemu", im), sp: program.DefaultStackTop}
	m.predecode()
	return m
}

// predecode decodes every text word once. Words that fail to decode
// (data or padding placed in text) predecode to an out-of-range op;
// Step decodes them again there, reproducing the exact fault. A fresh
// slice is allocated on every rebuild so clones sharing the old cache
// stay consistent.
func (m *Machine) predecode() {
	dec := make([]straight.Inst, len(m.Image.Text))
	for i, w := range m.Image.Text {
		inst, err := straight.Decode(w)
		if err != nil {
			inst = straight.Inst{Op: straight.Op(straight.NumOps)}
		}
		dec[i] = inst
	}
	m.dec = dec
}

// Reset returns the machine to power-on state for img (nil = rerun the
// current image), reusing the sparse memory's page frames and the I/O
// buffer. Output and strict mode are configuration and survive; TraceFn
// is cleared (it is re-armed per use).
func (m *Machine) Reset(img *program.Image) {
	if m.Shell.Reset(img) || m.dec == nil {
		m.predecode()
	}
	m.sp = program.DefaultStackTop
	m.ring = [ringSize]uint32{}
	m.stats = Stats{}
	m.TraceFn = nil
}

// SetStrict enables strict mode: any source operand read at a distance
// greater than maxDist, or reaching a slot no instruction has written
// yet (before program start), faults instead of silently reading stale
// or zero ring contents. maxDist 0 selects the ISA maximum. Strict mode
// turns the compiler contract the hardware assumes into a dynamic
// assertion, cross-validating the static verifier.
func (m *Machine) SetStrict(maxDist int) {
	if maxDist <= 0 || maxDist > straight.MaxDistance {
		maxDist = straight.MaxDistance
	}
	m.strictBound = uint16(maxDist)
}

// SP returns the current stack pointer.
func (m *Machine) SP() uint32 { return m.sp }

// Stats returns the accumulated statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

// Reg reads the value produced by the instruction at the given distance
// from the *next* instruction to execute (distance 1 = most recently
// executed). Distance 0 reads zero.
//
//lint:hotpath
func (m *Machine) Reg(distance uint16) uint32 {
	if distance == 0 {
		return 0
	}
	return m.ring[(m.Count-uint64(distance))&(ringSize-1)]
}

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fetchFault() error { return m.FetchFault() }

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fault(kind emu.FaultKind, format string, args ...any) error {
	return m.Faultf(kind, format, args...)
}

// read returns a source operand at the given distance and accumulates the
// operand-distance statistics. It is a method rather than a per-Step
// closure so the architectural step path stays allocation-free.
func (m *Machine) read(d uint16) uint32 {
	if d != 0 {
		m.stats.DistanceHist[d]++
		if d > m.stats.MaxObservedDistance {
			m.stats.MaxObservedDistance = d
		}
	}
	return m.Reg(d)
}

// strictCheck validates the instruction's source distances before it
// executes (strict mode).
func (m *Machine) strictCheck(inst straight.Inst) error {
	switch inst.Op.Format() {
	case straight.FmtR, straight.FmtS:
		if err := m.checkDistance(inst.Op, inst.Src1); err != nil {
			return err
		}
		return m.checkDistance(inst.Op, inst.Src2)
	case straight.FmtI, straight.FmtJR:
		return m.checkDistance(inst.Op, inst.Src1)
	}
	return nil
}

// checkDistance validates one source distance. A method rather than a
// per-strictCheck closure so the strict oracle loop stays
// allocation-free.
func (m *Machine) checkDistance(op straight.Op, d uint16) error {
	if d == 0 {
		return nil
	}
	if d > m.strictBound {
		return m.fault(emu.FaultStrictBound, "strict: %s reads distance %d beyond bound %d", op, d, m.strictBound)
	}
	if uint64(d) > m.Count {
		return m.fault(emu.FaultStrictUninit, "strict: %s reads [%d] but only %d instruction(s) have executed (never-written slot)",
			op, d, m.Count)
	}
	return nil
}

// Step executes one instruction. It returns io.EOF after SYS exit.
//
// Execution is one switch on the opcode that computes the result, the
// next PC and the memory effect directly: it is the fast-forward and
// lockstep-oracle hot path, run once per simulated instruction
// (DESIGN.md §6.1). The common ALU ops are written out; the rarer
// multiply-high and divide ops call straight.EvalALU, which the cycle
// core shares. An undecodable word predecodes to an out-of-range op and
// lands in the default case.
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
	if m.strictBound != 0 {
		if err := m.strictCheck(inst); err != nil {
			return err
		}
	}

	op := inst.Op
	pc := m.Pc
	imm := uint32(inst.Imm)
	nextPC := pc + program.InstructionBytes
	var result, memAddr uint32
	switch op {
	case straight.NOP:
		// result 0
	case straight.ADD:
		result = m.read(inst.Src1) + m.read(inst.Src2)
	case straight.SUB:
		result = m.read(inst.Src1) - m.read(inst.Src2)
	case straight.AND:
		result = m.read(inst.Src1) & m.read(inst.Src2)
	case straight.OR:
		result = m.read(inst.Src1) | m.read(inst.Src2)
	case straight.XOR:
		result = m.read(inst.Src1) ^ m.read(inst.Src2)
	case straight.SLL:
		result = m.read(inst.Src1) << (m.read(inst.Src2) & 31)
	case straight.SRL:
		result = m.read(inst.Src1) >> (m.read(inst.Src2) & 31)
	case straight.SRA:
		result = uint32(int32(m.read(inst.Src1)) >> (m.read(inst.Src2) & 31))
	case straight.SLT:
		result = b2u(int32(m.read(inst.Src1)) < int32(m.read(inst.Src2)))
	case straight.SLTU:
		result = b2u(m.read(inst.Src1) < m.read(inst.Src2))
	case straight.MUL:
		result = m.read(inst.Src1) * m.read(inst.Src2)
	case straight.MULH, straight.MULHU, straight.DIV, straight.DIVU, straight.REM, straight.REMU:
		result = straight.EvalALU(op, m.read(inst.Src1), m.read(inst.Src2))
	case straight.ADDI:
		result = m.read(inst.Src1) + imm
	case straight.ANDI:
		result = m.read(inst.Src1) & imm
	case straight.ORI:
		result = m.read(inst.Src1) | imm
	case straight.XORI:
		result = m.read(inst.Src1) ^ imm
	case straight.SLLI:
		result = m.read(inst.Src1) << (imm & 31)
	case straight.SRLI:
		result = m.read(inst.Src1) >> (imm & 31)
	case straight.SRAI:
		result = uint32(int32(m.read(inst.Src1)) >> (imm & 31))
	case straight.SLTI:
		result = b2u(int32(m.read(inst.Src1)) < inst.Imm)
	case straight.SLTIU:
		result = b2u(m.read(inst.Src1) < imm)
	case straight.LUI:
		result = straight.LUIValue(inst.Imm)
	case straight.LW:
		memAddr = m.read(inst.Src1) + imm
		if memAddr%4 != 0 {
			return m.misaligned(op, memAddr)
		}
		result = m.Memory.Load(memAddr, 4)
		m.stats.Loads++
	case straight.LH, straight.LHU:
		memAddr = m.read(inst.Src1) + imm
		if memAddr%2 != 0 {
			return m.misaligned(op, memAddr)
		}
		result = straight.ExtendLoad(op, m.Memory.Load(memAddr, 2))
		m.stats.Loads++
	case straight.LB, straight.LBU:
		memAddr = m.read(inst.Src1) + imm
		result = straight.ExtendLoad(op, m.Memory.Load(memAddr, 1))
		m.stats.Loads++
	case straight.SW, straight.SH, straight.SB:
		memAddr = m.read(inst.Src1) + imm
		// Stores return the stored value (paper §III-A).
		result = m.read(inst.Src2)
		width := straight.StoreWidth(op)
		if memAddr%uint32(width) != 0 {
			return m.misaligned(op, memAddr)
		}
		m.Memory.Store(memAddr, result, width)
		m.stats.Stores++
	case straight.BEZ, straight.BNZ:
		m.stats.Branches++
		if straight.BranchTaken(op, m.read(inst.Src1)) {
			m.stats.TakenBranches++
			nextPC = pc + imm*program.InstructionBytes
			result = 1
		}
	case straight.J:
		nextPC = pc + imm*program.InstructionBytes
	case straight.JAL:
		result = nextPC
		nextPC = pc + imm*program.InstructionBytes
	case straight.JR, straight.JALR:
		if op == straight.JALR {
			result = nextPC
		}
		nextPC = m.read(inst.Src1)
		if nextPC%program.InstructionBytes != 0 {
			return m.fault(emu.FaultMisaligned, "jump to misaligned address %#08x", nextPC)
		}
	case straight.RMOV:
		result = m.read(inst.Src1)
	case straight.SPADD:
		m.sp += imm
		result = m.sp
	case straight.SYS:
		var err error
		if result, err = m.syscall(inst); err != nil {
			return err
		}
	default:
		_, err := straight.Decode(m.Image.Text[i])
		return m.fault(emu.FaultDecode, "%v", err)
	}

	m.ring[m.Count&(ringSize-1)] = result
	m.Count++
	m.Pc = nextPC
	m.stats.Retired[op]++
	if m.TraceFn != nil {
		m.TraceFn(Retired{Count: m.Count - 1, PC: pc, Inst: inst, Result: result, NextPC: nextPC, SP: m.sp, MemAddr: memAddr})
	}
	if m.Halted {
		return io.EOF
	}
	return nil
}

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) misaligned(op straight.Op, addr uint32) error {
	return m.fault(emu.FaultMisaligned, "misaligned %s at address %#08x", op, addr)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// syscall executes a SYS instruction.
func (m *Machine) syscall(inst straight.Inst) (uint32, error) {
	switch inst.Imm {
	case straight.SysExit:
		m.ExitCode = int32(m.read(inst.Src1))
		m.Halted = true
		return 0, nil
	case straight.SysPutc:
		m.Putc(byte(m.read(inst.Src1)))
		return 0, nil
	case straight.SysPuti:
		m.Puti(int32(m.read(inst.Src1)))
		return 0, nil
	case straight.SysPutu:
		m.Putu(m.read(inst.Src1))
		return 0, nil
	case straight.SysPutx:
		m.Putx(m.read(inst.Src1))
		return 0, nil
	case straight.SysCycle:
		return uint32(m.Count), nil
	}
	return 0, m.fault(emu.FaultBadSys, "unknown SYS function %d", inst.Imm)
}

// Clone returns an independent copy of the architectural state (fresh
// statistics, discarded output) for oracle replay.
func (m *Machine) Clone() *Machine {
	return &Machine{Shell: m.Shell.Clone(), sp: m.sp, ring: m.ring, dec: m.dec}
}

// Checkpoint is an opaque snapshot of the architectural state (PC, SP,
// dynamic count, result window, memory, exit status). Statistics and the
// output writer are not part of the snapshot: a restored machine keeps
// accumulating into the same Stats and writing to the same output.
type Checkpoint struct {
	emu.Snapshot
	sp   uint32
	ring [ringSize]uint32
}

// SP returns the checkpointed stack pointer.
func (c *Checkpoint) SP() uint32 { return c.sp }

// Checkpoint captures the architectural state so execution can later be
// rewound with Restore. The snapshot is independent of the machine: it
// stays valid however far execution proceeds, and can be restored any
// number of times (the lockstep checker uses periodic checkpoints to
// replay the window leading up to a divergence).
func (m *Machine) Checkpoint() *Checkpoint {
	return &Checkpoint{Snapshot: m.Snapshot(), sp: m.sp, ring: m.ring}
}

// Restore rewinds the machine to a checkpoint taken earlier on the same
// image, reusing the machine's page frames rather than reallocating.
// The checkpoint remains valid for further Restore calls.
func (m *Machine) Restore(c *Checkpoint) {
	m.Shell.Restore(&c.Snapshot)
	m.sp, m.ring = c.sp, c.ring
}

// Run executes until SYS exit, a fault, or maxInsns instructions.
// It returns the number of instructions executed. Reaching the
// instruction limit returns an error: benchmarks must terminate via
// SYS exit so truncated runs are never mistaken for results.
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

// RunUntil executes until the dynamic instruction count reaches target,
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
