// Package irgen lowers a type-checked MiniC AST to the SSA IR. The
// front end plays the role of clang in the paper's toolchain: it produces
// the SSA-form intermediate representation both the STRAIGHT and RISC-V
// backends compile (§IV-A, Fig 7).
//
// Lowering strategy: every local variable becomes an alloca with explicit
// loads/stores; ir.Mem2Reg subsequently promotes scalars to SSA values
// with phis, exactly the shape the distance-fixing algorithm consumes.
package irgen

import (
	"encoding/binary"
	"fmt"

	"straight/internal/ir"
	"straight/internal/minic"
)

// Builtin call symbols recognized by the backends.
const (
	SymPutc   = "__putc"
	SymPuti   = "__puti"
	SymPutu   = "__putu"
	SymPutx   = "__putx"
	SymExit   = "__exit"
	SymCycles = "__cycles"
)

// Build lowers a parsed file to an IR module (unoptimized; callers run
// ir.OptimizeModule for -O2-equivalent output). Each function passes
// ir.Verify once it is built.
func Build(file *minic.File) (*ir.Module, error) {
	g := &generator{
		file:    file,
		mod:     &ir.Module{},
		funcs:   make(map[string]*minic.FuncDecl),
		globals: make(map[string]*minic.VarDecl),
		strLits: make(map[string]string),
	}
	for _, fd := range file.Funcs {
		if prev, ok := g.funcs[fd.Name]; ok && prev.Body != nil && fd.Body != nil {
			return nil, fmt.Errorf("irgen: function %s redefined", fd.Name)
		}
		if prev, ok := g.funcs[fd.Name]; !ok || prev.Body == nil {
			g.funcs[fd.Name] = fd
		}
	}
	for _, vd := range file.Globals {
		if _, ok := g.globals[vd.Name]; ok {
			return nil, fmt.Errorf("irgen: global %s redefined", vd.Name)
		}
		g.globals[vd.Name] = vd
		if err := g.emitGlobal(vd); err != nil {
			return nil, err
		}
	}
	for _, fd := range file.Funcs {
		if fd.Body == nil {
			continue
		}
		f, err := g.emitFunc(fd)
		if err != nil {
			return nil, err
		}
		g.mod.Funcs = append(g.mod.Funcs, f)
	}
	return g.mod, nil
}

type generator struct {
	file    *minic.File
	mod     *ir.Module
	funcs   map[string]*minic.FuncDecl
	globals map[string]*minic.VarDecl
	strLits map[string]string // literal -> global symbol
	nextStr int
}

func (g *generator) errf(pos minic.Pos, format string, args ...any) error {
	return fmt.Errorf("irgen: %d:%d: %s", pos.Line, pos.Col, fmt.Sprintf(format, args...))
}

// stringGlobal interns a string literal as a read-only global and returns
// its symbol.
func (g *generator) stringGlobal(s string) string {
	if sym, ok := g.strLits[s]; ok {
		return sym
	}
	sym := fmt.Sprintf(".Lstr%d", g.nextStr)
	g.nextStr++
	g.strLits[s] = sym
	data := append([]byte(s), 0)
	g.mod.Globals = append(g.mod.Globals, &ir.Global{
		Name: sym, Size: len(data), Init: data, Align: 1,
	})
	return sym
}

// ---- Globals ----

func (g *generator) emitGlobal(vd *minic.VarDecl) error {
	size := vd.Type.Size()
	if size <= 0 {
		return g.errf(vd.Pos, "global %s has incomplete type %s", vd.Name, vd.Type)
	}
	gl := &ir.Global{
		Name: vd.Name, Size: size, Align: vd.Type.Align(),
		Relocs: make(map[int]string),
	}
	if vd.Init != nil {
		buf := make([]byte, size)
		if err := g.encodeInit(buf, 0, vd.Type, vd.Init, gl.Relocs); err != nil {
			return err
		}
		gl.Init = buf
	}
	g.mod.Globals = append(g.mod.Globals, gl)
	return nil
}

// encodeInit writes a constant initializer into buf at off.
func (g *generator) encodeInit(buf []byte, off int, t *minic.Type, init minic.Expr, relocs map[int]string) error {
	switch t.Kind {
	case minic.TArray:
		switch x := init.(type) {
		case *minic.InitList:
			esz := t.Elem.Size()
			for i, item := range x.Items {
				if i >= t.ArrayLen {
					return g.errf(x.Pos, "too many initializers")
				}
				if err := g.encodeInit(buf, off+i*esz, t.Elem, item, relocs); err != nil {
					return err
				}
			}
			return nil
		case *minic.StringLit:
			if t.Elem.Kind != minic.TChar {
				return g.errf(x.Pos, "string initializer for non-char array")
			}
			if len(x.Val)+1 > t.ArrayLen {
				return g.errf(x.Pos, "string initializer too long")
			}
			copy(buf[off:], x.Val)
			return nil
		}
		return g.errf(minic.Pos{}, "bad array initializer")
	case minic.TStruct:
		il, ok := init.(*minic.InitList)
		if !ok {
			return g.errf(minic.Pos{}, "bad struct initializer")
		}
		for i, item := range il.Items {
			if i >= len(t.Struct.Fields) {
				return g.errf(il.Pos, "too many initializers")
			}
			fld := t.Struct.Fields[i]
			if err := g.encodeInit(buf, off+fld.Offset, fld.Type, item, relocs); err != nil {
				return err
			}
		}
		return nil
	default:
		// Scalar: constant expression, address of a global, or string.
		if s, ok := init.(*minic.StringLit); ok && t.Kind == minic.TPtr {
			relocs[off] = g.stringGlobal(s.Val)
			return nil
		}
		if sym, ok := g.constAddr(init); ok && t.Kind == minic.TPtr {
			relocs[off] = sym
			return nil
		}
		v, ok := g.file.EvalConstExpr(init)
		if !ok {
			return fmt.Errorf("irgen: initializer is not constant")
		}
		switch t.Size() {
		case 1:
			buf[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(buf[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		}
		return nil
	}
}

// constAddr recognizes &global and bare global-array/function names in
// initializers.
func (g *generator) constAddr(e minic.Expr) (string, bool) {
	switch x := e.(type) {
	case *minic.Unary:
		if x.Op == "&" {
			if id, ok := x.X.(*minic.Ident); ok {
				if _, isG := g.globals[id.Name]; isG {
					return id.Name, true
				}
				if _, isF := g.funcs[id.Name]; isF {
					return id.Name, true
				}
			}
		}
	case *minic.Ident:
		if vd, isG := g.globals[x.Name]; isG && vd.Type.Kind == minic.TArray {
			return x.Name, true
		}
		if _, isF := g.funcs[x.Name]; isF {
			return x.Name, true
		}
	}
	return "", false
}

// ---- Functions ----

type local struct {
	addr *ir.Value // alloca
	typ  *minic.Type
}

type funcGen struct {
	g      *generator
	fd     *minic.FuncDecl
	f      *ir.Func
	cur    *ir.Block
	scopes []map[string]*local

	breakStack    []*ir.Block
	continueStack []*ir.Block
	blockCount    int
}

func (g *generator) emitFunc(fd *minic.FuncDecl) (*ir.Func, error) {
	fg := &funcGen{
		g:  g,
		fd: fd,
		f:  ir.NewFunc(fd.Name, len(fd.Params), fd.Ret.Kind == minic.TVoid),
	}
	entry := fg.f.NewBlock("entry")
	fg.cur = entry
	fg.pushScope()
	for i, p := range fd.Params {
		pv := fg.f.NewValue(ir.OpParam, irType(p.Type))
		pv.Aux = i
		fg.emit(pv)
		slot := fg.f.NewValue(ir.OpAlloca, ir.TypePtr)
		slot.Aux = 4
		fg.emit(slot)
		fg.emit(fg.f.NewValue(ir.OpStore, ir.TypeVoid, slot, pv)) // MemW (Aux 0)
		if p.Name != "" {
			fg.scopes[0][p.Name] = &local{addr: slot, typ: p.Type}
		}
	}
	if err := fg.stmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return at the end of the function.
	if fg.cur.Terminator() == nil {
		if fd.Ret.Kind == minic.TVoid {
			fg.emit(fg.f.NewValue(ir.OpRet, ir.TypeVoid))
		} else {
			z := fg.constVal(0)
			fg.emit(fg.f.NewValue(ir.OpRet, ir.TypeVoid, z))
		}
	}
	fg.popScope()
	if err := ir.Verify(fg.f); err != nil {
		return nil, fmt.Errorf("irgen: %s: internal error: %w\n%s", fd.Name, err, fg.f)
	}
	return fg.f, nil
}

func irType(t *minic.Type) ir.Type {
	if t.Kind == minic.TPtr || t.Kind == minic.TArray {
		return ir.TypePtr
	}
	return ir.TypeI32
}

func (fg *funcGen) pushScope() { fg.scopes = append(fg.scopes, make(map[string]*local)) }
func (fg *funcGen) popScope()  { fg.scopes = fg.scopes[:len(fg.scopes)-1] }

func (fg *funcGen) lookup(name string) *local {
	for i := len(fg.scopes) - 1; i >= 0; i-- {
		if l, ok := fg.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (fg *funcGen) emit(v *ir.Value) *ir.Value { return fg.cur.Append(v) }

func (fg *funcGen) newBlock(hint string) *ir.Block {
	fg.blockCount++
	return fg.f.NewBlock(fmt.Sprintf("%s%d", hint, fg.blockCount))
}

// startBlock switches emission to b; if the current block lacks a
// terminator, control falls through via an explicit br.
func (fg *funcGen) startBlock(b *ir.Block) {
	if fg.cur.Terminator() == nil {
		fg.emit(fg.f.NewValue(ir.OpBr, ir.TypeVoid))
		ir.AddEdge(fg.cur, b)
	}
	fg.cur = b
}

func (fg *funcGen) branchTo(b *ir.Block) {
	if fg.cur.Terminator() == nil {
		fg.emit(fg.f.NewValue(ir.OpBr, ir.TypeVoid))
		ir.AddEdge(fg.cur, b)
	}
}

func (fg *funcGen) condBranch(cond *ir.Value, then, els *ir.Block) {
	fg.emit(fg.f.NewValue(ir.OpCondBr, ir.TypeVoid, cond))
	ir.AddEdge(fg.cur, then)
	ir.AddEdge(fg.cur, els)
}

func (fg *funcGen) constVal(c int32) *ir.Value {
	v := fg.f.NewValue(ir.OpConst, ir.TypeI32)
	v.Const = c
	return fg.emit(v)
}

func (fg *funcGen) binOp(k ir.BinKind, a, b *ir.Value) *ir.Value {
	v := fg.f.NewValue(ir.OpBin, ir.TypeI32, a, b)
	v.Aux = int(k)
	return fg.emit(v)
}

func (fg *funcGen) cmpOp(k ir.CmpKind, a, b *ir.Value) *ir.Value {
	v := fg.f.NewValue(ir.OpCmp, ir.TypeI32, a, b)
	v.Aux = int(k)
	return fg.emit(v)
}

// memKind maps a scalar type to its load/store kind.
func memKind(t *minic.Type) ir.MemKind {
	switch t.Kind {
	case minic.TChar:
		if t.Unsigned {
			return ir.MemBU
		}
		return ir.MemB
	case minic.TShort:
		if t.Unsigned {
			return ir.MemHU
		}
		return ir.MemH
	default:
		return ir.MemW
	}
}

func (fg *funcGen) load(addr *ir.Value, t *minic.Type) *ir.Value {
	v := fg.f.NewValue(ir.OpLoad, irType(t), addr)
	v.Aux = int(memKind(t))
	return fg.emit(v)
}

func (fg *funcGen) store(addr, val *ir.Value, t *minic.Type) {
	v := fg.f.NewValue(ir.OpStore, ir.TypeVoid, addr, val)
	v.Aux = int(memKind(t))
	fg.emit(v)
}
