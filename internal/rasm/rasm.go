// Package rasm implements a two-pass assembler and linker for RV32IM,
// producing the same program.Image the STRAIGHT toolchain uses so both
// simulators load binaries identically.
//
// Syntax follows standard RISC-V assembly:
//
//	main:
//	    addi a0, zero, 42
//	    lw   t0, 8(sp)
//	    beq  a0, t0, done
//	    jal  ra, func
//	    lui  t1, %hi(sym)
//	    addi t1, t1, %lo(sym)
//
// plus the pseudo-instructions li, la, mv, nop, ret, j and call.
// Mnemonics and register names are case-insensitive. Pseudo-instructions
// expand to a fixed instruction count so layout is predictable in the
// first pass. Sections, labels and directives are those of the shared
// driver (internal/asm); this package supplies the instruction encoding.
package rasm

import (
	"fmt"
	"strings"

	"straight/internal/asm"
	"straight/internal/isa/riscv"
	"straight/internal/program"
)

var isa = &asm.ISA{
	Name: "rasm",
	// li and la always expand to lui+addi, for layout predictability.
	Size: func(mnem string) int {
		if m := strings.ToLower(mnem); m == "li" || m == "la" {
			return 2
		}
		return 1
	},
	Encode: encode,
	Format: func(w uint32) string { return riscv.Decode(w).String() },
}

// Assemble assembles RV32IM source into a linked image.
func Assemble(src string) (*program.Image, error) { return isa.Assemble(src) }

// Disassemble renders the text segment for debugging.
func Disassemble(im *program.Image) string { return isa.Disassemble(im) }

func encode(words []uint32, it *asm.Item, symbols map[string]uint32) ([]uint32, error) {
	p := &parser{it: it, mnem: strings.ToLower(it.Mnem), symbols: symbols}
	insts := p.expand()
	if p.err != nil {
		return words, p.err
	}
	for _, inst := range insts {
		w, err := riscv.Encode(inst)
		if err != nil {
			return words, err
		}
		words = append(words, w)
	}
	return words, nil
}

// parser reads one item's operands. The first error sticks: later reads
// return zero values, so an expansion reports the error of the first
// operand that fails, in operand order.
type parser struct {
	it      *asm.Item
	mnem    string
	symbols map[string]uint32
	err     error
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// want checks the operand count.
func (p *parser) want(n int) bool {
	if p.it.NOps != n {
		p.fail("%s expects %d operands, got %d", p.mnem, n, p.it.NOps)
	}
	return p.err == nil
}

// expand resolves the item into machine instructions.
func (p *parser) expand() []riscv.Inst {
	ops := p.it.Ops
	switch p.mnem {
	case "nop":
		return []riscv.Inst{{Op: riscv.ADDI}}
	case "ret":
		return []riscv.Inst{{Op: riscv.JALR, Rs1: riscv.RegRA}}
	case "ecall":
		return []riscv.Inst{{Op: riscv.ECALL}}
	case "ebreak":
		return []riscv.Inst{{Op: riscv.EBREAK}}
	case "fence":
		return []riscv.Inst{{Op: riscv.FENCE}}
	case "mv":
		if !p.want(2) {
			return nil
		}
		return []riscv.Inst{{Op: riscv.ADDI, Rd: p.reg(0), Rs1: p.reg(1)}}
	case "li", "la":
		if !p.want(2) {
			return nil
		}
		rd := p.reg(0)
		var v uint32
		if p.mnem == "la" {
			addr, ok := p.symbols[ops[1]]
			if !ok {
				p.fail("la: undefined symbol %q", ops[1])
			}
			v = addr
		} else {
			n, err := asm.ParseInt(ops[1])
			if err != nil {
				p.fail("li: bad immediate %q", ops[1])
			}
			v = uint32(n)
		}
		return []riscv.Inst{
			{Op: riscv.LUI, Rd: rd, Imm: hi20(v)},
			{Op: riscv.ADDI, Rd: rd, Rs1: rd, Imm: lo12(v)},
		}
	case "j", "call":
		if !p.want(1) {
			return nil
		}
		var rd uint8
		if p.mnem == "call" {
			rd = riscv.RegRA
		}
		return []riscv.Inst{{Op: riscv.JAL, Rd: rd, Imm: p.branch(0, 1<<20)}}
	}

	op, ok := mnemonics[p.mnem]
	if !ok {
		p.fail("%s: unknown mnemonic", p.mnem)
		return nil
	}
	switch {
	case op.Class() == riscv.ClassBranch:
		if !p.want(3) {
			return nil
		}
		return []riscv.Inst{{Op: op, Rs1: p.reg(0), Rs2: p.reg(1), Imm: p.branch(2, 1<<12)}}
	case op.Class() == riscv.ClassLoad || op == riscv.JALR:
		if !p.want(2) {
			return nil
		}
		rd := p.reg(0)
		base, off := p.mem(1)
		return []riscv.Inst{{Op: op, Rd: rd, Rs1: base, Imm: off}}
	case op.Class() == riscv.ClassStore:
		if !p.want(2) {
			return nil
		}
		rs2 := p.reg(0)
		base, off := p.mem(1)
		return []riscv.Inst{{Op: op, Rs1: base, Rs2: rs2, Imm: off}}
	case op == riscv.LUI || op == riscv.AUIPC:
		if !p.want(2) {
			return nil
		}
		return []riscv.Inst{{Op: op, Rd: p.reg(0), Imm: p.upper(1)}}
	case op == riscv.JAL:
		if !p.want(2) {
			return nil
		}
		return []riscv.Inst{{Op: op, Rd: p.reg(0), Imm: p.branch(1, 1<<20)}}
	}
	// Register-register and register-immediate ALU.
	if !p.want(3) {
		return nil
	}
	rd, rs1 := p.reg(0), p.reg(1)
	if op.IsImmALU() {
		return []riscv.Inst{{Op: op, Rd: rd, Rs1: rs1, Imm: p.lower(2)}}
	}
	return []riscv.Inst{{Op: op, Rd: rd, Rs1: rs1, Rs2: p.reg(2)}}
}

// lo12 is the sign-extended low 12 bits of v; hi20 is the LUI immediate
// that, added to lo12, rebuilds v.
func lo12(v uint32) int32 { return int32(v<<20) >> 20 }
func hi20(v uint32) int32 { return int32((v - uint32(lo12(v))) & 0xFFFFF000) }

func (p *parser) reg(i int) uint8 {
	r, ok := regAliases[strings.ToLower(p.it.Ops[i])]
	if !ok {
		p.fail("bad register %q", p.it.Ops[i])
	}
	return r
}

// branch resolves a PC-relative target: a literal byte offset or a
// symbol within ±limit bytes.
func (p *parser) branch(i int, limit int32) int32 {
	tok := p.it.Ops[i]
	if asm.LooksNumeric(tok) {
		if n, err := asm.ParseInt(tok); err == nil {
			return int32(n)
		}
	}
	addr, ok := p.symbols[tok]
	if !ok {
		p.fail("undefined symbol %q", tok)
		return 0
	}
	off := int64(addr) - int64(p.it.Addr)
	if off < -int64(limit) || off >= int64(limit) {
		p.fail("branch target %q out of range", tok)
	}
	return int32(off)
}

// upper resolves a LUI/AUIPC operand: literal (unshifted 20-bit value)
// or %hi(sym).
func (p *parser) upper(i int) int32 {
	tok := p.it.Ops[i]
	if addr, ok := p.symbolIn(tok, "%hi("); ok {
		return hi20(addr)
	}
	n, err := asm.ParseInt(tok)
	if err != nil {
		p.fail("bad upper immediate %q", tok)
	}
	return int32(uint32(n) << 12)
}

// lower resolves an I-type immediate: literal or %lo(sym).
func (p *parser) lower(i int) int32 {
	tok := p.it.Ops[i]
	if addr, ok := p.symbolIn(tok, "%lo("); ok {
		return lo12(addr)
	}
	n, err := asm.ParseInt(tok)
	if err != nil {
		p.fail("bad immediate %q", tok)
	}
	return int32(n)
}

// symbolIn resolves the symbol of an operand function like "%hi(sym)";
// ok is false when tok is not a call of fn.
func (p *parser) symbolIn(tok, fn string) (addr uint32, ok bool) {
	sym, ok := strings.CutPrefix(tok, fn)
	if !ok || !strings.HasSuffix(sym, ")") {
		return 0, false
	}
	addr, found := p.symbols[sym[:len(sym)-1]]
	if !found {
		p.fail("undefined symbol in %q", tok)
	}
	return addr, true
}

// mem parses "off(reg)" or "(reg)".
func (p *parser) mem(i int) (base uint8, off int32) {
	tok := p.it.Ops[i]
	open := strings.LastIndexByte(tok, '(')
	if open < 0 || !strings.HasSuffix(tok, ")") {
		p.fail("bad memory operand %q", tok)
		return 0, 0
	}
	r, ok := regAliases[strings.ToLower(tok[open+1:len(tok)-1])]
	if !ok {
		p.fail("bad base register in %q", tok)
		return 0, 0
	}
	if open == 0 {
		return r, 0
	}
	n, err := asm.ParseInt(tok[:open])
	if err != nil {
		p.fail("bad offset in %q", tok)
	}
	return r, int32(n)
}

// mnemonics maps every machine mnemonic the driver can hand over.
var mnemonics = func() map[string]riscv.Op {
	m := make(map[string]riscv.Op, riscv.NumOps)
	for op := riscv.LUI; int(op) < riscv.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

var regAliases = func() map[string]uint8 {
	m := make(map[string]uint8, 64)
	for i, n := range riscv.RegNames {
		m[n] = uint8(i)
		m[fmt.Sprintf("x%d", i)] = uint8(i)
	}
	m["fp"] = riscv.RegS0
	return m
}()
