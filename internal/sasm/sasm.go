// Package sasm implements a two-pass assembler and linker for the
// STRAIGHT instruction set. It accepts the assembly syntax used in the
// paper's listings:
//
//	Function_iota:
//	    ADDi [0], 0        # i = 0
//	    SLT  [2], [4]
//	    BEZ  [1], Label_for_end
//	    ST   [4], [7]      ; store value [7] to address [4]
//	    J    Label_for_cond
//	Label_for_end:
//	    JR   [5]
//
// Operands are separated by commas or whitespace; "#", ";" and "//" begin
// comments. "[k]" is a producer distance. Branch and jump targets may be
// labels (assembled PC-relative) or literal immediates. The operand
// functions hi(label) and lo(label) yield the upper 24 and lower 8 bits of
// a symbol address for LUI/ORi constant materialization.
//
// Sections, labels and directives are those of the shared driver
// (internal/asm); this package supplies the instruction encoding.
package sasm

import (
	"fmt"
	"strconv"
	"strings"

	"straight/internal/asm"
	"straight/internal/isa/straight"
	"straight/internal/program"
	"straight/internal/sverify"
)

var isa = &asm.ISA{
	Name:   "sasm",
	Size:   func(string) int { return 1 },
	Encode: encode,
	Format: func(w uint32) string {
		inst, err := straight.Decode(w)
		if err != nil {
			return "<invalid>"
		}
		return inst.String()
	},
}

type config struct {
	verify    bool
	verifyCfg sverify.Config
}

// Option configures the assembler.
type Option func(*config)

// WithVerify runs the static invariant verifier (internal/sverify) over
// the linked image and fails assembly if any STRAIGHT invariant is
// violated. maxDistance is the operand-distance bound to verify against
// (0 means the ISA maximum).
func WithVerify(maxDistance int) Option {
	return func(c *config) {
		c.verify = true
		c.verifyCfg = sverify.Config{MaxDistance: maxDistance}
	}
}

// Assemble assembles STRAIGHT assembly source into a linked image.
// The entry point is the .entry symbol if given, else "main", else
// "_start", else the start of the text segment.
func Assemble(src string, opts ...Option) (*program.Image, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	im, err := isa.Assemble(src)
	if err != nil {
		return nil, err
	}
	if c.verify {
		if err := sverify.Check(im, c.verifyCfg); err != nil {
			return nil, &asm.Error{Asm: isa.Name, Line: 0, Msg: err.Error()}
		}
	}
	return im, nil
}

// Disassemble renders the text segment with addresses and symbols, for
// debugging and golden tests.
func Disassemble(im *program.Image) string { return isa.Disassemble(im) }

func encode(words []uint32, it *asm.Item, symbols map[string]uint32) ([]uint32, error) {
	inst, err := encodeItem(it, symbols)
	if err != nil {
		return words, err
	}
	w, err := straight.Encode(inst)
	return append(words, w), err
}

func encodeItem(it *asm.Item, symbols map[string]uint32) (straight.Inst, error) {
	op, ok := straight.Lookup(it.Mnem)
	if !ok {
		return straight.Inst{}, fmt.Errorf("unknown mnemonic %q", it.Mnem)
	}
	inst := straight.Inst{Op: op}
	want, got := operandSpec(op), len(it.Ops)
	if got < want.min || got > want.max {
		return straight.Inst{}, fmt.Errorf("%s expects %s operands, got %d", op, want, got)
	}
	next := 0
	take := func() string { s := it.Ops[next]; next++; return s }
	dist := func(role string) (uint16, error) {
		d, err := parseDistance(take())
		if err != nil {
			return 0, fmt.Errorf("%s %s: %v", op, role, err)
		}
		return d, nil
	}
	var err error
	switch op.Format() {
	case straight.FmtN:
	case straight.FmtR:
		if inst.Src1, err = dist("src1"); err != nil {
			return inst, err
		}
		if inst.Src2, err = dist("src2"); err != nil {
			return inst, err
		}
	case straight.FmtJR:
		if inst.Src1, err = dist("src1"); err != nil {
			return inst, err
		}
	case straight.FmtI:
		if inst.Src1, err = dist("src1"); err != nil {
			return inst, err
		}
		inst.Imm, err = resolveImm(it, take(), op, symbols)
	case straight.FmtS:
		if op == straight.SYS {
			if inst.Imm, err = parseSysFunc(take()); err != nil {
				return inst, err
			}
			if next < got {
				if inst.Src1, err = dist("src1"); err != nil {
					return inst, err
				}
			}
			if next < got {
				if inst.Src2, err = dist("src2"); err != nil {
					return inst, err
				}
			}
		} else {
			if inst.Src1, err = dist("addr"); err != nil {
				return inst, err
			}
			if inst.Src2, err = dist("value"); err != nil {
				return inst, err
			}
			if next < got {
				n, perr := asm.ParseInt(take())
				if perr != nil {
					return inst, fmt.Errorf("%s offset: %v", op, perr)
				}
				inst.Imm = int32(n)
			}
		}
	case straight.FmtJ:
		inst.Imm, err = resolveImm(it, take(), op, symbols)
	}
	return inst, err
}

// resolveImm resolves an immediate operand, which may be a literal, a
// label (PC-relative for control flow), or hi(sym)/lo(sym).
func resolveImm(it *asm.Item, tok string, op straight.Op, symbols map[string]uint32) (int32, error) {
	if n, err := asm.ParseInt(tok); err == nil {
		return int32(n), nil
	}
	if fn, sym, ok := splitFunc(tok); ok {
		addr, found := symbols[sym]
		if !found {
			return 0, fmt.Errorf("undefined symbol %q", sym)
		}
		switch fn {
		case "hi":
			return int32(addr >> 8), nil
		case "lo":
			return int32(addr & 0xFF), nil
		}
		return 0, fmt.Errorf("unknown operand function %q", fn)
	}
	if !asm.ValidIdent(tok) {
		return 0, fmt.Errorf("bad operand %q", tok)
	}
	addr, found := symbols[tok]
	if !found {
		return 0, fmt.Errorf("undefined symbol %q", tok)
	}
	switch op {
	case straight.BEZ, straight.BNZ, straight.J, straight.JAL:
		delta := int64(addr) - int64(it.Addr)
		if delta%program.InstructionBytes != 0 {
			return 0, fmt.Errorf("misaligned branch target")
		}
		return int32(delta / program.InstructionBytes), nil
	case straight.LUI:
		return int32(addr >> 8), nil
	}
	return 0, fmt.Errorf("%s cannot take a symbol operand", op)
}

type spec struct{ min, max int }

func (s spec) String() string {
	if s.min == s.max {
		return strconv.Itoa(s.min)
	}
	return fmt.Sprintf("%d..%d", s.min, s.max)
}

func operandSpec(op straight.Op) spec {
	switch op.Format() {
	case straight.FmtR, straight.FmtI:
		return spec{2, 2}
	case straight.FmtS:
		if op == straight.SYS {
			return spec{1, 3}
		}
		return spec{2, 3} // offset optional, defaults to 0
	case straight.FmtJ, straight.FmtJR:
		return spec{1, 1}
	}
	return spec{0, 0}
}

var sysNames = map[string]int32{
	"exit":  straight.SysExit,
	"putc":  straight.SysPutc,
	"puti":  straight.SysPuti,
	"cycle": straight.SysCycle,
	"putu":  straight.SysPutu,
	"putx":  straight.SysPutx,
}

func parseSysFunc(tok string) (int32, error) {
	if f, ok := sysNames[strings.ToLower(tok)]; ok {
		return f, nil
	}
	n, err := asm.ParseInt(tok)
	if err != nil {
		return 0, fmt.Errorf("bad SYS function %q", tok)
	}
	return int32(n), nil
}

func parseDistance(tok string) (uint16, error) {
	if len(tok) < 3 || tok[0] != '[' || tok[len(tok)-1] != ']' {
		return 0, fmt.Errorf("expected distance operand like [3], got %q", tok)
	}
	n, err := strconv.ParseUint(tok[1:len(tok)-1], 10, 16)
	if err != nil || n > straight.MaxDistance {
		return 0, fmt.Errorf("distance %q out of range 0..%d", tok, straight.MaxDistance)
	}
	return uint16(n), nil
}

func splitFunc(tok string) (fn, arg string, ok bool) {
	i := strings.IndexByte(tok, '(')
	if i <= 0 || !strings.HasSuffix(tok, ")") {
		return "", "", false
	}
	return tok[:i], tok[i+1 : len(tok)-1], true
}
