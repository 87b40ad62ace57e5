// Package riscv implements the RV32IM instruction set used by the paper's
// superscalar counterpart ("SS" models, §V-A): standard RISC-V 32-bit
// integer + multiply/divide, with the standard R/I/S/B/U/J encodings.
// Floating point is intentionally absent (disabled in the evaluation).
package riscv

import "fmt"

// Op enumerates decoded RV32IM operations.
type Op uint8

const (
	ILLEGAL Op = iota

	LUI
	AUIPC
	JAL
	JALR

	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	LB
	LH
	LW
	LBU
	LHU
	SB
	SH
	SW

	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI

	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND

	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU

	ECALL
	EBREAK
	FENCE

	numOps
)

// NumOps is the number of defined operations (including ILLEGAL).
const NumOps = int(numOps)

var opNames = [numOps]string{
	ILLEGAL: "illegal",
	LUI:     "lui", AUIPC: "auipc", JAL: "jal", JALR: "jalr",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	LB: "lb", LH: "lh", LW: "lw", LBU: "lbu", LHU: "lhu",
	SB: "sb", SH: "sh", SW: "sw",
	ADDI: "addi", SLTI: "slti", SLTIU: "sltiu", XORI: "xori", ORI: "ori", ANDI: "andi",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADD: "add", SUB: "sub", SLL: "sll", SLT: "slt", SLTU: "sltu",
	XOR: "xor", SRL: "srl", SRA: "sra", OR: "or", AND: "and",
	MUL: "mul", MULH: "mulh", MULHSU: "mulhsu", MULHU: "mulhu",
	DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
	ECALL: "ecall", EBREAK: "ebreak", FENCE: "fence",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class mirrors the execution classes used by the pipeline models.
type Class uint8

const (
	ClassALU Class = iota
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassSys
)

// Class returns the execution class of the operation.
//
//lint:hotpath
func (o Op) Class() Class {
	switch o {
	case MUL, MULH, MULHSU, MULHU:
		return ClassMul
	case DIV, DIVU, REM, REMU:
		return ClassDiv
	case LB, LH, LW, LBU, LHU:
		return ClassLoad
	case SB, SH, SW:
		return ClassStore
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return ClassBranch
	case JAL, JALR:
		return ClassJump
	case ECALL, EBREAK:
		return ClassSys
	default:
		return ClassALU
	}
}

// IsImmALU reports whether o is an ALU operation whose second operand is
// the immediate (ADDI through SRAI).
//
//lint:hotpath
func (o Op) IsImmALU() bool {
	switch o {
	case ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI:
		return true
	}
	return false
}

// Inst is a decoded RV32IM instruction. Imm is the fully sign-extended
// immediate with its format-specific scaling already applied (byte offsets
// for branches/jumps, the shifted value for LUI/AUIPC).
type Inst struct {
	Op       Op
	Rd       uint8
	Rs1, Rs2 uint8
	Imm      int32
}

// ReadsRs1 reports whether the instruction reads Rs1.
//
//lint:hotpath
func (i Inst) ReadsRs1() bool {
	switch i.Op {
	case LUI, AUIPC, JAL, ECALL, EBREAK, FENCE, ILLEGAL:
		return false
	}
	return true
}

// ReadsRs2 reports whether the instruction reads Rs2.
//
//lint:hotpath
func (i Inst) ReadsRs2() bool {
	switch i.Op.Class() {
	case ClassStore, ClassBranch:
		return true
	}
	switch i.Op {
	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
		MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU:
		return true
	}
	return false
}

// WritesRd reports whether the instruction writes a destination register
// (x0 writes are architectural no-ops but still "write" structurally).
//
//lint:hotpath
func (i Inst) WritesRd() bool {
	switch i.Op.Class() {
	case ClassStore, ClassBranch:
		return false
	}
	switch i.Op {
	case ECALL, EBREAK, FENCE, ILLEGAL:
		return false
	}
	return true
}

// IsControl reports whether the instruction can redirect the PC.
//
//lint:hotpath
func (i Inst) IsControl() bool {
	c := i.Op.Class()
	return c == ClassBranch || c == ClassJump
}

// RegNames is the ABI register naming (x0..x31).
var RegNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// ABI register numbers used by the toolchain.
const (
	RegZero = 0
	RegRA   = 1
	RegSP   = 2
	RegT0   = 5
	RegT1   = 6
	RegT2   = 7
	RegS0   = 8
	RegS1   = 9
	RegA0   = 10
	RegA1   = 11
	RegA7   = 17
	RegT3   = 28
	RegT4   = 29
	RegT5   = 30
	RegT6   = 31
)

func (i Inst) String() string {
	switch i.Op.Class() {
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, RegNames[i.Rs1], RegNames[i.Rs2], i.Imm)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegNames[i.Rs2], i.Imm, RegNames[i.Rs1])
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegNames[i.Rd], i.Imm, RegNames[i.Rs1])
	}
	switch i.Op {
	case LUI, AUIPC:
		return fmt.Sprintf("%s %s, %#x", i.Op, RegNames[i.Rd], uint32(i.Imm)>>12)
	case JAL:
		return fmt.Sprintf("jal %s, %d", RegNames[i.Rd], i.Imm)
	case JALR:
		return fmt.Sprintf("jalr %s, %d(%s)", RegNames[i.Rd], i.Imm, RegNames[i.Rs1])
	case ECALL, EBREAK, FENCE, ILLEGAL:
		return i.Op.String()
	}
	if i.Op.IsImmALU() {
		return fmt.Sprintf("%s %s, %s, %d", i.Op, RegNames[i.Rd], RegNames[i.Rs1], i.Imm)
	}
	return fmt.Sprintf("%s %s, %s, %s", i.Op, RegNames[i.Rd], RegNames[i.Rs1], RegNames[i.Rs2])
}
