// Package riscvbe is the RV32IM code generator for the superscalar
// baseline ("SS"), standing in for the paper's clang/LLVM RISC-V backend
// (§V-A). It lowers the same SSA IR the STRAIGHT backend consumes, so
// both binaries derive from identical middle-end output — mirroring the
// paper's setup where both targets compile the same C source at -O2.
//
// Code generation is a straightforward virtual-register lowering followed
// by linear-scan register allocation over the RV32 ABI:
//
//   - arguments in a0–a7 (more spill to the stack), result in a0;
//   - ra/t-registers caller-saved, s-registers callee-saved;
//   - allocas and spills in a standard descending frame below sp.
package riscvbe

import (
	"fmt"
	"strings"

	"straight/internal/ir"
)

// Compile lowers a module to RV32IM assembly (rasm syntax).
func Compile(mod *ir.Module) (string, error) {
	var b strings.Builder
	b.Grow(asmBytesPerInsn * mod.NumInsns())
	b.WriteString("# Generated by riscvbe\n    .entry _start\n")
	emitData(&b, mod)
	b.WriteString("    .text\n_start:\n")
	b.WriteString("    call main\n")
	b.WriteString("    li a7, 0\n")
	b.WriteString("    ecall\n")
	for _, f := range mod.Funcs {
		fe := newFnEmitter(f)
		if err := fe.emit(&b); err != nil {
			return "", fmt.Errorf("riscvbe: %s: %w", f.Name, err)
		}
	}
	return b.String(), nil
}

// asmBytesPerInsn sizes the output buffer: the workloads' assembly runs
// to 26–38 bytes per optimized IR instruction.
const asmBytesPerInsn = 40

func emitData(b *strings.Builder, mod *ir.Module) {
	if len(mod.Globals) == 0 {
		return
	}
	b.WriteString("    .data\n")
	for _, g := range mod.Globals {
		align := g.Align
		if align < 1 {
			align = 1
		}
		fmt.Fprintf(b, "    .align %d\n%s:\n", align, g.Name)
		writeGlobalBody(b, g)
	}
}

func writeGlobalBody(b *strings.Builder, g *ir.Global) {
	if len(g.Init) == 0 && len(g.Relocs) == 0 {
		fmt.Fprintf(b, "    .space %d\n", g.Size)
		return
	}
	i := 0
	byteAt := func(k int) byte {
		if k < len(g.Init) {
			return g.Init[k]
		}
		return 0
	}
	for i < g.Size {
		if sym, ok := g.Relocs[i]; ok {
			fmt.Fprintf(b, "    .word %s\n", sym)
			i += 4
			continue
		}
		j := i
		for j < g.Size {
			if _, ok := g.Relocs[j]; ok {
				break
			}
			j++
		}
		allZero := true
		for k := i; k < j; k++ {
			if byteAt(k) != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			fmt.Fprintf(b, "    .space %d\n", j-i)
		} else {
			for k := i; k < j; k += 12 {
				end := k + 12
				if end > j {
					end = j
				}
				parts := make([]string, 0, 12)
				for m := k; m < end; m++ {
					parts = append(parts, fmt.Sprintf("%d", byteAt(m)))
				}
				fmt.Fprintf(b, "    .byte %s\n", strings.Join(parts, ", "))
			}
		}
		i = j
	}
}

// ---- Virtual-register lowering ----

// vinst is a lowered instruction over virtual registers. Negative
// register numbers are virtual; 0..31 are pre-colored physical registers.
type vinst struct {
	op  string // rasm mnemonic or pseudo ("label", "li", "la", ...)
	rd  int
	rs1 int
	rs2 int
	imm int32
	sym string
}

const (
	pZero = 0
	pRA   = 1
	pSP   = 2
	pT0   = 5 // reserved scratch for the allocator
	pT1   = 6 // reserved scratch
	pA0   = 10
	pA7   = 17
)

// Allocatable registers. t0/t1 are reserved as spill scratch; the
// argument registers a0..a7 are deliberately NOT allocatable — they are
// written by parameter binding, call staging and syscalls, and modeling
// their implicit liveness in a linear scan is not worth the 8 registers
// (17 remain, plenty for the evaluated workloads).
var callerSaved = []int{7, 28, 29, 30, 31}                            // t2, t3..t6
var calleeSaved = []int{8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27} // s0..s11

type fnEmitter struct {
	f      *ir.Func
	code   []vinst
	nextVR int
	vregOf map[*ir.Value]int
	// phiCopies[edge pred][succ] handled during lowering via parallel
	// copies placed at block ends.
	labelOf map[*ir.Block]string
	// frame layout
	allocaOff map[*ir.Value]int
	allocaSz  int
	// callArgs holds, for each "call" pseudo in emission order, the
	// virtual registers carrying its arguments.
	callArgs [][]int
}

func newFnEmitter(f *ir.Func) *fnEmitter {
	// The workloads lower to at most 1.5 virtual instructions per IR
	// instruction and block label.
	n := len(f.Blocks)
	for _, b := range f.Blocks {
		n += len(b.Insns)
	}
	return &fnEmitter{
		f:         f,
		code:      make([]vinst, 0, n+n/2),
		vregOf:    make(map[*ir.Value]int),
		labelOf:   make(map[*ir.Block]string),
		allocaOff: make(map[*ir.Value]int),
		nextVR:    -1,
	}
}

func (fe *fnEmitter) vreg(v *ir.Value) int {
	if r, ok := fe.vregOf[v]; ok {
		return r
	}
	r := fe.nextVR
	fe.nextVR--
	fe.vregOf[v] = r
	return r
}

func (fe *fnEmitter) newVR() int {
	r := fe.nextVR
	fe.nextVR--
	return r
}

func (fe *fnEmitter) ins(op string, rd, rs1, rs2 int, imm int32, sym string) {
	fe.code = append(fe.code, vinst{op: op, rd: rd, rs1: rs1, rs2: rs2, imm: imm, sym: sym})
}

func (fe *fnEmitter) emit(out *strings.Builder) error {
	blocks := fe.f.RPO()
	for i, b := range blocks {
		fe.labelOf[b] = fmt.Sprintf(".L%s_%d", fe.f.Name, i)
	}
	// Frame slots for allocas.
	off := 0
	for _, b := range blocks {
		for _, v := range b.Insns {
			if v.Op == ir.OpAlloca {
				fe.allocaOff[v] = off
				off += (v.Aux + 3) &^ 3
			}
		}
	}
	fe.allocaSz = off

	for _, b := range blocks {
		fe.ins("label", 0, 0, 0, 0, fe.labelOf[b])
		if b == fe.f.Entry() {
			// Bind parameters: a0..a7, rest on the caller's stack.
			for _, v := range b.Insns {
				if v.Op == ir.OpParam {
					if v.Aux < 8 {
						fe.ins("mv", fe.vreg(v), pA0+v.Aux, 0, 0, "")
					} else {
						// Incoming stack argument: loaded relative to the
						// frame pointer area; handled by regalloc with a
						// special marker.
						fe.ins("ldarg", fe.vreg(v), 0, 0, int32(v.Aux-8)*4, "")
					}
				}
			}
		}
		if err := fe.lowerBlock(b); err != nil {
			return err
		}
	}
	out.WriteString(fe.f.Name)
	out.WriteString(":\n")
	return newRegAlloc(fe, out).run()
}

func (fe *fnEmitter) lowerBlock(b *ir.Block) error {
	for _, v := range b.Insns[len(b.Phis()):] {
		if err := fe.lowerInsn(b, v); err != nil {
			return fmt.Errorf("%s: %w", v.Name(), err)
		}
	}
	return nil
}

// lowerEdgeCopies emits the phi parallel copies for edge b->s before the
// branch. A cycle among phi copies is broken with a scratch virtual.
func (fe *fnEmitter) lowerEdgeCopies(b, s *ir.Block) {
	idx := s.PredIndex(b)
	type copyOp struct{ dst, src int }
	var copies []copyOp
	for _, phi := range s.Phis() {
		dst := fe.vreg(phi)
		src := fe.vreg(phi.Args[idx])
		if dst != src {
			copies = append(copies, copyOp{dst, src})
		}
	}
	// Topologically order copies; break cycles via a temp.
	for len(copies) > 0 {
		progress := false
		for i, c := range copies {
			// c.dst must not be a source of any remaining copy.
			isSrc := false
			for j, o := range copies {
				if j != i && o.src == c.dst {
					isSrc = true
					break
				}
			}
			if !isSrc {
				fe.ins("mv", c.dst, c.src, 0, 0, "")
				copies = append(copies[:i], copies[i+1:]...)
				progress = true
				break
			}
		}
		if !progress {
			// Cycle: rotate through a temp.
			t := fe.newVR()
			fe.ins("mv", t, copies[0].src, 0, 0, "")
			copies[0].src = t
			// The first copy's src is now the temp; retry.
		}
	}
}

var binOpName = map[ir.BinKind]string{
	ir.BinAdd: "add", ir.BinSub: "sub", ir.BinMul: "mul",
	ir.BinDiv: "div", ir.BinUDiv: "divu", ir.BinRem: "rem", ir.BinURem: "remu",
	ir.BinAnd: "and", ir.BinOr: "or", ir.BinXor: "xor",
	ir.BinShl: "sll", ir.BinShr: "srl", ir.BinSar: "sra",
}

var binImmName = map[ir.BinKind]string{
	ir.BinAdd: "addi", ir.BinAnd: "andi", ir.BinOr: "ori", ir.BinXor: "xori",
	ir.BinShl: "slli", ir.BinShr: "srli", ir.BinSar: "srai",
}

var loadName = map[ir.MemKind]string{
	ir.MemW: "lw", ir.MemB: "lb", ir.MemBU: "lbu", ir.MemH: "lh", ir.MemHU: "lhu",
}

var storeName = map[ir.MemKind]string{
	ir.MemW: "sw", ir.MemB: "sb", ir.MemBU: "sb", ir.MemH: "sh", ir.MemHU: "sh",
}

func (fe *fnEmitter) lowerInsn(b *ir.Block, v *ir.Value) error {
	switch v.Op {
	case ir.OpConst:
		fe.ins("li", fe.vreg(v), 0, 0, v.Const, "")
	case ir.OpGlobalAddr:
		fe.ins("la", fe.vreg(v), 0, 0, 0, v.Sym)
	case ir.OpParam:
		// bound in prologue
	case ir.OpAlloca:
		fe.ins("lea", fe.vreg(v), 0, 0, int32(fe.allocaOff[v]), "")
	case ir.OpBin:
		k := ir.BinKind(v.Aux)
		if rhs := v.Args[1]; rhs.Op == ir.OpConst {
			imm := rhs.Const
			name := binImmName[k]
			if k == ir.BinSub && imm != -2048 {
				name, imm = "addi", -imm
			}
			if name != "" && imm >= -2048 && imm <= 2047 {
				fe.ins(name, fe.vreg(v), fe.vreg(v.Args[0]), 0, imm, "")
				return nil
			}
		}
		fe.ins(binOpName[k], fe.vreg(v), fe.vreg(v.Args[0]), fe.vreg(v.Args[1]), 0, "")
	case ir.OpCmp:
		fe.lowerCmp(v)
	case ir.OpSext:
		sh := int32(32 - v.Aux)
		t := fe.newVR()
		fe.ins("slli", t, fe.vreg(v.Args[0]), 0, sh, "")
		fe.ins("srai", fe.vreg(v), t, 0, sh, "")
	case ir.OpZext:
		if v.Aux == 8 {
			fe.ins("andi", fe.vreg(v), fe.vreg(v.Args[0]), 0, 255, "")
		} else {
			t := fe.newVR()
			fe.ins("slli", t, fe.vreg(v.Args[0]), 0, 16, "")
			fe.ins("srli", fe.vreg(v), t, 0, 16, "")
		}
	case ir.OpLoad:
		base, off := fe.addr(v.Args[0])
		fe.ins(loadName[ir.MemKind(v.Aux)], fe.vreg(v), base, 0, off, "")
	case ir.OpStore:
		base, off := fe.addr(v.Args[0])
		fe.ins(storeName[ir.MemKind(v.Aux)], 0, base, fe.vreg(v.Args[1]), off, "")
	case ir.OpCall:
		return fe.lowerCall(v)
	case ir.OpRet:
		if len(v.Args) == 1 {
			fe.ins("mv", pA0, fe.vreg(v.Args[0]), 0, 0, "")
		}
		fe.ins("epilogue", 0, 0, 0, 0, "")
	case ir.OpBr:
		fe.lowerEdgeCopies(b, b.Succs[0])
		fe.ins("j", 0, 0, 0, 0, fe.labelOf[b.Succs[0]])
	case ir.OpCondBr:
		// Phi copies must be correct on both edges; emit the else copies
		// after the branch and the then copies in a shim when needed.
		then, els := b.Succs[0], b.Succs[1]
		if fe.edgeNeedsCopies(b, then) {
			shim := fmt.Sprintf(".L%s_s%d", fe.f.Name, len(fe.code))
			fe.ins("bne", 0, fe.vreg(v.Args[0]), pZero, 0, shim)
			fe.lowerEdgeCopies(b, els)
			fe.ins("j", 0, 0, 0, 0, fe.labelOf[els])
			fe.ins("label", 0, 0, 0, 0, shim)
			fe.lowerEdgeCopies(b, then)
			fe.ins("j", 0, 0, 0, 0, fe.labelOf[then])
		} else {
			fe.ins("bne", 0, fe.vreg(v.Args[0]), pZero, 0, fe.labelOf[then])
			fe.lowerEdgeCopies(b, els)
			fe.ins("j", 0, 0, 0, 0, fe.labelOf[els])
		}
	default:
		return fmt.Errorf("unhandled op %v", v.Op)
	}
	return nil
}

func (fe *fnEmitter) edgeNeedsCopies(b, s *ir.Block) bool {
	idx := s.PredIndex(b)
	for _, phi := range s.Phis() {
		if fe.vreg(phi) != fe.vreg(phi.Args[idx]) {
			return true
		}
	}
	return false
}

// addr folds Add(x, const) into a load/store offset.
func (fe *fnEmitter) addr(a *ir.Value) (int, int32) {
	if a.Op == ir.OpBin && ir.BinKind(a.Aux) == ir.BinAdd &&
		a.Args[1].Op == ir.OpConst && a.Args[1].Const >= -2048 && a.Args[1].Const <= 2047 {
		return fe.vreg(a.Args[0]), a.Args[1].Const
	}
	return fe.vreg(a), 0
}

func (fe *fnEmitter) lowerCmp(v *ir.Value) {
	k := ir.CmpKind(v.Aux)
	a, b := fe.vreg(v.Args[0]), fe.vreg(v.Args[1])
	rd := fe.vreg(v)
	switch k {
	case ir.CmpGt, ir.CmpUGt, ir.CmpLe, ir.CmpULe:
		a, b = b, a
		k = k.Swap()
	}
	switch k {
	case ir.CmpLt:
		if v.Args[1].Op == ir.OpConst && v.Args[1].Const >= -2048 && v.Args[1].Const <= 2047 && b == fe.vreg(v.Args[1]) {
			fe.ins("slti", rd, a, 0, v.Args[1].Const, "")
			return
		}
		fe.ins("slt", rd, a, b, 0, "")
	case ir.CmpULt:
		fe.ins("sltu", rd, a, b, 0, "")
	case ir.CmpGe:
		fe.ins("slt", rd, a, b, 0, "")
		fe.ins("xori", rd, rd, 0, 1, "")
	case ir.CmpUGe:
		fe.ins("sltu", rd, a, b, 0, "")
		fe.ins("xori", rd, rd, 0, 1, "")
	case ir.CmpEq:
		t := fe.newVR()
		fe.ins("xor", t, a, b, 0, "")
		fe.ins("sltiu", rd, t, 0, 1, "")
	case ir.CmpNe:
		t := fe.newVR()
		fe.ins("xor", t, a, b, 0, "")
		fe.ins("sltu", rd, pZero, t, 0, "")
	}
}

var builtinSys = map[string]int32{
	"__exit": 0, "__putc": 1, "__puti": 2, "__cycles": 3, "__putu": 4, "__putx": 5,
}

func (fe *fnEmitter) lowerCall(v *ir.Value) error {
	if code, ok := builtinSys[v.Sym]; ok {
		// Syscall: a7 = code, a0 = arg. a0/a7 are clobbered; model as a
		// "syscall" pseudo the allocator treats like a mini-call.
		arg := 0
		if len(v.Args) > 0 {
			arg = fe.vreg(v.Args[0])
		}
		fe.ins("syscall", 0, arg, 0, code, "")
		if v.Type != ir.TypeVoid {
			fe.ins("mv", fe.vreg(v), pA0, 0, 0, "")
		}
		return nil
	}
	args := v.Args
	target := ""
	indirectVR := 0
	if v.Sym == "" {
		indirectVR = fe.vreg(v.Args[0])
		args = v.Args[1:]
	} else {
		target = v.Sym
	}
	if len(args) > 8 {
		return fmt.Errorf("more than 8 call arguments not supported")
	}
	// Stage arguments through temps into a0..a(n-1) at the call pseudo;
	// the allocator materializes the moves.
	argVRs := make([]int, len(args))
	for i, a := range args {
		argVRs[i] = fe.vreg(a)
	}
	// call pseudo: rs1 = indirect target vreg (or 0), sym = direct name;
	// imm = nargs; the allocator emits arg moves + call + result move.
	fe.code = append(fe.code, vinst{op: "call", rs1: indirectVR, imm: int32(len(args)), sym: target})
	fe.callArgs = append(fe.callArgs, argVRs)
	if v.Type != ir.TypeVoid {
		fe.ins("mv", fe.vreg(v), pA0, 0, 0, "")
	}
	return nil
}
