package ir

// This file implements the scalar optimization passes: constant folding
// with algebraic simplification, dead-code elimination, and CFG
// simplification. Optimize runs the standard pipeline.

// Optimize runs the middle-end pipeline at -O2-equivalent strength for
// this IR: promote locals to SSA, fold constants, remove dead code and
// simplify the CFG to a fixpoint.
func Optimize(f *Func) {
	Mem2Reg(f)
	for i := 0; i < 8; i++ {
		changed := ConstFold(f)
		changed = DCE(f) || changed
		changed = SimplifyCFG(f) || changed
		if !changed {
			break
		}
	}
}

// OptimizeModule optimizes every function.
func OptimizeModule(m *Module) {
	for _, f := range m.Funcs {
		Optimize(f)
	}
}

// EvalBin computes a binary operation on 32-bit values with the IR's
// semantics (shared with the backends for immediate folding). Division by
// zero follows the target semantics (RV32M-style) so folding never
// changes behaviour.
func EvalBin(k BinKind, a, b uint32) uint32 {
	switch k {
	case BinAdd:
		return a + b
	case BinSub:
		return a - b
	case BinMul:
		return a * b
	case BinDiv:
		if b == 0 {
			return 0xFFFFFFFF
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return a
		}
		return uint32(int32(a) / int32(b))
	case BinUDiv:
		if b == 0 {
			return 0xFFFFFFFF
		}
		return a / b
	case BinRem:
		if b == 0 {
			return a
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0
		}
		return uint32(int32(a) % int32(b))
	case BinURem:
		if b == 0 {
			return a
		}
		return a % b
	case BinAnd:
		return a & b
	case BinOr:
		return a | b
	case BinXor:
		return a ^ b
	case BinShl:
		return a << (b & 31)
	case BinShr:
		return a >> (b & 31)
	case BinSar:
		return uint32(int32(a) >> (b & 31))
	}
	return 0
}

// EvalCmp computes a comparison yielding 0/1.
func EvalCmp(k CmpKind, a, b uint32) uint32 {
	var r bool
	switch k {
	case CmpEq:
		r = a == b
	case CmpNe:
		r = a != b
	case CmpLt:
		r = int32(a) < int32(b)
	case CmpLe:
		r = int32(a) <= int32(b)
	case CmpGt:
		r = int32(a) > int32(b)
	case CmpGe:
		r = int32(a) >= int32(b)
	case CmpULt:
		r = a < b
	case CmpULe:
		r = a <= b
	case CmpUGt:
		r = a > b
	case CmpUGe:
		r = a >= b
	}
	if r {
		return 1
	}
	return 0
}

// ConstFold folds constant expressions and applies simple algebraic
// identities (x+0, x*1, x*0, x-x, extensions of constants). It reports
// whether anything changed.
func ConstFold(f *Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if nv := foldValue(f, v); nv != nil {
				// Replace v with a constant in place: keep the instruction
				// object (so block order is stable) but rewrite it.
				v.Op = OpConst
				v.Const = int32(nv.c)
				v.Args = nil
				v.Sym = ""
				v.Aux = 0
				changed = true
				continue
			}
			if rep := simplifyValue(v); rep != nil {
				f.ReplaceUses(v, rep)
				changed = true
			}
		}
	}
	return changed
}

type folded struct{ c uint32 }

func foldValue(f *Func, v *Value) *folded {
	cArg := func(i int) (uint32, bool) {
		if i < len(v.Args) && v.Args[i].Op == OpConst {
			return uint32(v.Args[i].Const), true
		}
		return 0, false
	}
	switch v.Op {
	case OpBin:
		a, aok := cArg(0)
		b, bok := cArg(1)
		if aok && bok {
			return &folded{EvalBin(BinKind(v.Aux), a, b)}
		}
	case OpCmp:
		a, aok := cArg(0)
		b, bok := cArg(1)
		if aok && bok {
			return &folded{EvalCmp(CmpKind(v.Aux), a, b)}
		}
	case OpSext:
		if a, ok := cArg(0); ok {
			if v.Aux == 8 {
				return &folded{uint32(int32(int8(a)))}
			}
			return &folded{uint32(int32(int16(a)))}
		}
	case OpZext:
		if a, ok := cArg(0); ok {
			if v.Aux == 8 {
				return &folded{uint32(uint8(a))}
			}
			return &folded{uint32(uint16(a))}
		}
	}
	return nil
}

// simplifyValue applies algebraic identities, returning the replacement
// value or nil.
func simplifyValue(v *Value) *Value {
	if v.Op != OpBin {
		return nil
	}
	k := BinKind(v.Aux)
	a, b := v.Args[0], v.Args[1]
	isConst := func(x *Value, c int32) bool { return x.Op == OpConst && x.Const == c }
	switch k {
	case BinAdd:
		if isConst(b, 0) {
			return a
		}
		if isConst(a, 0) {
			return b
		}
	case BinSub:
		if isConst(b, 0) {
			return a
		}
	case BinMul:
		if isConst(b, 1) {
			return a
		}
		if isConst(a, 1) {
			return b
		}
	case BinAnd:
		if isConst(b, -1) {
			return a
		}
		if isConst(a, -1) {
			return b
		}
	case BinOr, BinXor:
		if isConst(b, 0) {
			return a
		}
		if isConst(a, 0) {
			return b
		}
	case BinShl, BinShr, BinSar:
		if isConst(b, 0) {
			return a
		}
	}
	return nil
}

// DCE removes instructions with no side effects whose results are unused.
// It reports whether anything changed.
func DCE(f *Func) bool {
	used := newValueSet(f)
	var mark func(v *Value)
	mark = func(v *Value) {
		if used.has(v.ID) {
			return
		}
		used.add(v.ID)
		for _, a := range v.Args {
			mark(a)
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if hasSideEffects(v) {
				mark(v)
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		insns := b.Insns[:0]
		for _, v := range b.Insns {
			if used.has(v.ID) || hasSideEffects(v) {
				insns = append(insns, v)
			} else {
				changed = true
			}
		}
		b.Insns = insns
	}
	return changed
}

func hasSideEffects(v *Value) bool {
	switch v.Op {
	case OpStore, OpCall, OpRet, OpBr, OpCondBr:
		return true
	}
	return false
}

// SimplifyCFG removes unreachable blocks, folds constant conditional
// branches, and merges blocks with a single unconditional successor whose
// successor has a single predecessor. It reports whether anything
// changed.
func SimplifyCFG(f *Func) bool {
	changed := false

	// Fold condbr on constants into br.
	for _, b := range f.Blocks {
		term := b.Terminator()
		if term == nil || term.Op != OpCondBr || term.Args[0].Op != OpConst {
			continue
		}
		takeIdx := 1 // condbr cond, then(0), else(1): 0 means else
		if term.Args[0].Const != 0 {
			takeIdx = 0
		}
		dead := b.Succs[1-takeIdx]
		live := b.Succs[takeIdx]
		removePredEdge(dead, b)
		b.Succs = []*Block{live}
		term.Op = OpBr
		term.Args = nil
		changed = true
	}

	// Remove unreachable blocks (and their pred edges into live blocks).
	reach := make([]bool, f.nextBlockID+1)
	for _, b := range f.RPO() {
		reach[b.ID] = true
	}
	if pruneUnreachable(f, reach) {
		changed = true
	}

	// Branch folding and pruning can leave single-argument phis behind;
	// clean them up so the merge step below is not blocked.
	if changed {
		removeTrivialPhis(f)
	}

	// Merge b -> s when b ends in br, s has exactly one pred.
	for {
		merged := false
		for _, b := range f.Blocks {
			term := b.Terminator()
			if term == nil || term.Op != OpBr {
				continue
			}
			s := b.Succs[0]
			if s == b || len(s.Preds) != 1 || len(s.Phis()) != 0 {
				continue
			}
			// Splice s's instructions in place of b's terminator.
			b.RemoveInsn(term)
			for _, v := range s.Insns {
				v.Block = b
				b.Insns = append(b.Insns, v)
			}
			b.Succs = s.Succs
			for _, ns := range s.Succs {
				for i, p := range ns.Preds {
					if p == s {
						ns.Preds[i] = b
					}
				}
			}
			removeBlock(f, s)
			merged = true
			changed = true
			break
		}
		if !merged {
			break
		}
	}
	return changed
}

func pruneUnreachable(f *Func, reach []bool) bool {
	changed := false
	var live []*Block
	for _, b := range f.Blocks {
		if reach[b.ID] {
			live = append(live, b)
			continue
		}
		changed = true
		for _, s := range b.Succs {
			if reach[s.ID] {
				// Remove the phi args corresponding to this dead pred.
				idx := s.PredIndex(b)
				if idx >= 0 {
					for _, phi := range s.Phis() {
						phi.Args = append(phi.Args[:idx], phi.Args[idx+1:]...)
					}
					s.Preds = append(s.Preds[:idx], s.Preds[idx+1:]...)
				}
			}
		}
	}
	f.Blocks = live
	if changed {
		removeTrivialPhis(f)
	}
	return changed
}

func removePredEdge(b, pred *Block) {
	idx := b.PredIndex(pred)
	if idx < 0 {
		return
	}
	for _, phi := range b.Phis() {
		phi.Args = append(phi.Args[:idx], phi.Args[idx+1:]...)
	}
	b.Preds = append(b.Preds[:idx], b.Preds[idx+1:]...)
}

func removeBlock(f *Func, b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}
