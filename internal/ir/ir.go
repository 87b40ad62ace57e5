// Package ir defines the SSA intermediate representation the compiler
// lowers MiniC into, plus the middle-end passes (mem2reg, constant
// folding, dead-code elimination, CFG simplification).
//
// The IR deliberately keeps the shape of LLVM IR that the paper's
// compilation algorithm (§IV) depends on: typed values, basic blocks with
// explicit predecessor/successor edges, phi instructions whose operands
// parallel the predecessor list, allocas for addressable locals, and
// call/ret with register-passed arguments. The STRAIGHT backend consumes
// exactly these properties for distance fixing and redundancy elimination.
package ir

import "fmt"

// Op enumerates IR instruction opcodes.
type Op uint8

const (
	// OpConst materializes the 32-bit constant in Const.
	OpConst Op = iota
	// OpGlobalAddr materializes the address of the global named Sym.
	OpGlobalAddr
	// OpParam is the i-th (Aux) incoming function parameter.
	OpParam
	// OpAlloca reserves Aux bytes in the frame and yields the address.
	OpAlloca
	// OpLoad loads from Args[0]; Aux encodes width/sign (see MemKind).
	OpLoad
	// OpStore stores Args[1] to address Args[0]; Aux encodes width.
	OpStore
	// OpBin is a binary ALU operation; Aux is a BinKind.
	OpBin
	// OpCmp is an integer comparison yielding 0/1; Aux is a CmpKind.
	OpCmp
	// OpPhi merges values; Args parallel Block.Preds.
	OpPhi
	// OpCall calls function Sym with Args; Type is Void for void calls.
	OpCall
	// OpRet returns (optionally Args[0]).
	OpRet
	// OpBr branches unconditionally to Block.Succs[0].
	OpBr
	// OpCondBr branches on Args[0] != 0 to Succs[0], else Succs[1].
	OpCondBr
	// OpSext sign-extends the low Aux bits (8 or 16) of Args[0].
	OpSext
	// OpZext zero-extends the low Aux bits (8 or 16) of Args[0].
	OpZext

	numIROps
)

var irOpNames = [numIROps]string{
	OpConst: "const", OpGlobalAddr: "gaddr", OpParam: "param", OpAlloca: "alloca",
	OpLoad: "load", OpStore: "store", OpBin: "bin", OpCmp: "cmp", OpPhi: "phi",
	OpCall: "call", OpRet: "ret", OpBr: "br", OpCondBr: "condbr",
	OpSext: "sext", OpZext: "zext",
}

func (o Op) String() string {
	if int(o) < len(irOpNames) {
		return irOpNames[o]
	}
	return fmt.Sprintf("irop(%d)", uint8(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpRet || o == OpBr || o == OpCondBr }

// BinKind identifies a binary ALU operation.
type BinKind uint8

const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv  // signed
	BinUDiv // unsigned
	BinRem  // signed
	BinURem // unsigned
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr // logical
	BinSar // arithmetic

	numBinKinds
)

var binNames = [numBinKinds]string{
	"add", "sub", "mul", "div", "udiv", "rem", "urem",
	"and", "or", "xor", "shl", "shr", "sar",
}

func (k BinKind) String() string {
	if int(k) < len(binNames) {
		return binNames[k]
	}
	return fmt.Sprintf("bin(%d)", uint8(k))
}

// CmpKind identifies an integer comparison.
type CmpKind uint8

const (
	CmpEq CmpKind = iota
	CmpNe
	CmpLt // signed
	CmpLe
	CmpGt
	CmpGe
	CmpULt // unsigned
	CmpULe
	CmpUGt
	CmpUGe

	numCmpKinds
)

var cmpNames = [numCmpKinds]string{
	"eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge",
}

func (k CmpKind) String() string {
	if int(k) < len(cmpNames) {
		return cmpNames[k]
	}
	return fmt.Sprintf("cmp(%d)", uint8(k))
}

// Invert returns the comparison with operands swapped (a<b == b>a).
func (k CmpKind) Swap() CmpKind {
	switch k {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	case CmpULt:
		return CmpUGt
	case CmpULe:
		return CmpUGe
	case CmpUGt:
		return CmpULt
	case CmpUGe:
		return CmpULe
	}
	return k
}

// Negate returns the logical negation of the comparison.
func (k CmpKind) Negate() CmpKind {
	switch k {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpGe:
		return CmpLt
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpULt:
		return CmpUGe
	case CmpUGe:
		return CmpULt
	case CmpULe:
		return CmpUGt
	case CmpUGt:
		return CmpULe
	}
	return k
}

// MemKind describes a memory access width and extension (Aux of
// OpLoad/OpStore).
type MemKind uint8

const (
	MemW  MemKind = iota // 32-bit word
	MemB                 // signed byte
	MemBU                // unsigned byte
	MemH                 // signed half
	MemHU                // unsigned half
)

// Bytes returns the access width in bytes.
func (m MemKind) Bytes() int {
	switch m {
	case MemW:
		return 4
	case MemH, MemHU:
		return 2
	default:
		return 1
	}
}

func (m MemKind) String() string {
	return [...]string{"w", "b", "bu", "h", "hu"}[m]
}

// Type is the SSA value type. All register values are 32 bits wide;
// the type distinguishes void results and pointer provenance for
// readability and verification.
type Type uint8

const (
	TypeVoid Type = iota
	TypeI32
	TypePtr
)

func (t Type) String() string {
	return [...]string{"void", "i32", "ptr"}[t]
}

// Value is an SSA instruction (every instruction produces at most one
// value; instructions and values are identified).
type Value struct {
	ID    int
	Op    Op
	Type  Type
	Args  []*Value
	Block *Block

	// Aux carries the op-specific small payload: BinKind, CmpKind,
	// MemKind, alloca size, param index, or extension width.
	Aux int
	// Const is the constant payload of OpConst.
	Const int32
	// Sym is the callee (OpCall) or global name (OpGlobalAddr).
	Sym string
}

// Name returns a printable SSA name like "v12".
func (v *Value) Name() string { return fmt.Sprintf("v%d", v.ID) }

// Block is a basic block: a name, ordered instructions (phis first), and
// explicit CFG edges. Phi argument order parallels Preds.
type Block struct {
	// ID numbers the block within its function, from 1 (see NewBlock).
	ID    int
	Name  string
	Insns []*Value
	Preds []*Block
	Succs []*Block
	Func  *Func
}

// Terminator returns the block's final instruction, or nil if the block
// is not yet terminated.
func (b *Block) Terminator() *Value {
	if len(b.Insns) == 0 {
		return nil
	}
	last := b.Insns[len(b.Insns)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Phis returns the block's leading phi instructions.
func (b *Block) Phis() []*Value {
	for i, v := range b.Insns {
		if v.Op != OpPhi {
			return b.Insns[:i]
		}
	}
	return b.Insns
}

// PredIndex returns the index of p in b.Preds, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// Func is an IR function.
type Func struct {
	Name    string
	NParams int
	// RetVoid records whether the function returns no value.
	RetVoid bool
	Blocks  []*Block
	// nextID and nextBlockID are the last IDs NewValue and NewBlock
	// handed out: the IDs of f's values and blocks are dense, so the
	// passes keep per-value and per-block facts in slices they index.
	nextID      int
	nextBlockID int
}

// Module is a compilation unit.
type Module struct {
	Funcs   []*Func
	Globals []*Global
}

// Global is a statically allocated object.
type Global struct {
	Name  string
	Size  int
	Init  []byte // nil or shorter than Size means zero-filled tail
	Align int
	// Relocs patch symbol addresses into Init at link time (offset →
	// symbol name), for pointer-valued initializers.
	Relocs map[int]string
}

// NumInsns returns the number of instructions in the module's blocks.
func (m *Module) NumInsns() int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insns)
		}
	}
	return n
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NewFunc creates an empty function.
func NewFunc(name string, nParams int, retVoid bool) *Func {
	return &Func{Name: name, NParams: nParams, RetVoid: retVoid}
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a new empty block.
func (f *Func) NewBlock(name string) *Block {
	f.nextBlockID++
	b := &Block{ID: f.nextBlockID, Name: name, Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewValue creates an instruction without inserting it into a block.
func (f *Func) NewValue(op Op, t Type, args ...*Value) *Value {
	f.nextID++
	return &Value{ID: f.nextID, Op: op, Type: t, Args: args}
}

// Append inserts v at the end of block b.
func (b *Block) Append(v *Value) *Value {
	v.Block = b
	b.Insns = append(b.Insns, v)
	return v
}

// InsertPhi inserts v (a phi) after the block's existing phis.
func (b *Block) InsertPhi(v *Value) *Value {
	v.Block = b
	n := len(b.Phis())
	b.Insns = append(b.Insns, nil)
	copy(b.Insns[n+1:], b.Insns[n:])
	b.Insns[n] = v
	return v
}

// AddEdge records a CFG edge from b to s.
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// RemoveFromSlice removes the first occurrence of v.
func removeValue(s []*Value, v *Value) []*Value {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// RemoveInsn deletes v from its block.
func (b *Block) RemoveInsn(v *Value) {
	b.Insns = removeValue(b.Insns, v)
	v.Block = nil
}

// ReplaceUses rewrites every use of old with new across the function.
func (f *Func) ReplaceUses(old, new *Value) {
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			for i, a := range v.Args {
				if a == old {
					v.Args[i] = new
				}
			}
		}
	}
}

// RPO returns the blocks in reverse postorder from the entry.
// Unreachable blocks are excluded.
func (f *Func) RPO() []*Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	seen := make([]bool, f.nextBlockID+1)
	post := make([]*Block, 0, len(f.Blocks))
	var visit func(b *Block)
	visit = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				visit(s)
			}
		}
		post = append(post, b)
	}
	visit(f.Blocks[0])
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
