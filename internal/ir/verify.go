package ir

import "fmt"

// Verify checks structural and SSA invariants of a function:
//
//   - every block ends in exactly one terminator, with Succs matching;
//   - Preds/Succs edges are mutually consistent;
//   - phis appear only at block heads with one argument per predecessor;
//   - block and value IDs are those NewBlock and NewValue handed out,
//     each used once, which the passes' ID-indexed sets rely on;
//   - every non-phi use is dominated by its definition;
//   - phi arguments are defined on (dominate the end of) the matching
//     predecessor.
//
// The compiler runs Verify on each function after construction
// (irgen.Build) and on the module after optimization (core.CompileC),
// so a front-end or pass bug fails loudly instead of miscompiling a
// benchmark.
func Verify(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: %s: no blocks", f.Name)
	}
	if len(f.Entry().Preds) != 0 {
		return fmt.Errorf("ir: %s: entry block has predecessors", f.Name)
	}
	// member[id] is the block of f.Blocks with that ID.
	member := make([]*Block, f.nextBlockID+1)
	for _, b := range f.Blocks {
		if b.ID <= 0 || b.ID > f.nextBlockID || member[b.ID] != nil {
			return fmt.Errorf("ir: %s: block %s has ID %d, not a unique one of 1..%d", f.Name, b.Name, b.ID, f.nextBlockID)
		}
		member[b.ID] = b
	}
	for _, b := range f.Blocks {
		if err := verifyBlockShape(f, b); err != nil {
			return err
		}
		for _, e := range [2][]*Block{b.Preds, b.Succs} {
			for _, x := range e {
				if x.ID <= 0 || x.ID > f.nextBlockID || member[x.ID] != x {
					return fmt.Errorf("ir: %s: block %s has an edge to %s, which is not in the function", f.Name, b.Name, x.Name)
				}
			}
		}
	}
	dom := BuildDomTree(f)
	// defs[id] is the value defined under ID id and its index in its
	// block (the block is v.Block, which verifyBlockShape checked).
	type def struct {
		v     *Value
		index int
	}
	defs := make([]def, f.nextID+1)
	for _, b := range f.Blocks {
		for i, v := range b.Insns {
			if v.ID <= 0 || v.ID > f.nextID {
				return fmt.Errorf("ir: %s: %s in %s has an ID outside 1..%d", f.Name, v.Name(), b.Name, f.nextID)
			}
			if defs[v.ID].v != nil {
				return fmt.Errorf("ir: %s: two values in %s and %s share ID %d", f.Name, defs[v.ID].v.Block.Name, b.Name, v.ID)
			}
			defs[v.ID] = def{v, i}
		}
	}
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue // unreachable code is checked for shape only
		}
		for i, v := range b.Insns {
			for ai, a := range v.Args {
				if a.ID <= 0 || a.ID > f.nextID || defs[a.ID].v != a {
					return fmt.Errorf("ir: %s: %s in %s uses %s which is not in any block", f.Name, v.Name(), b.Name, a.Name())
				}
				db := a.Block
				if v.Op == OpPhi {
					pred := b.Preds[ai]
					if !dom.Reachable(pred) {
						continue
					}
					if !dom.Dominates(db, pred) {
						return fmt.Errorf("ir: %s: phi %s in %s: arg %s (def in %s) does not dominate pred %s",
							f.Name, v.Name(), b.Name, a.Name(), db.Name, pred.Name)
					}
					continue
				}
				if db == b {
					if defs[a.ID].index >= i {
						return fmt.Errorf("ir: %s: %s in %s uses %s before its definition", f.Name, v.Name(), b.Name, a.Name())
					}
				} else if !dom.Dominates(db, b) {
					return fmt.Errorf("ir: %s: %s in %s uses %s defined in non-dominating block %s",
						f.Name, v.Name(), b.Name, a.Name(), db.Name)
				}
			}
		}
	}
	return nil
}

func verifyBlockShape(f *Func, b *Block) error {
	term := b.Terminator()
	if term == nil {
		return fmt.Errorf("ir: %s: block %s has no terminator", f.Name, b.Name)
	}
	for i, v := range b.Insns {
		if v.Op.IsTerminator() && i != len(b.Insns)-1 {
			return fmt.Errorf("ir: %s: block %s has terminator %s mid-block", f.Name, b.Name, v.Name())
		}
		if v.Block != b {
			return fmt.Errorf("ir: %s: insn %s in %s has wrong block link", f.Name, v.Name(), b.Name)
		}
	}
	wantSuccs := 0
	switch term.Op {
	case OpBr:
		wantSuccs = 1
	case OpCondBr:
		wantSuccs = 2
	}
	if len(b.Succs) != wantSuccs {
		return fmt.Errorf("ir: %s: block %s: terminator %v with %d successors", f.Name, b.Name, term.Op, len(b.Succs))
	}
	for _, s := range b.Succs {
		if s.PredIndex(b) < 0 {
			return fmt.Errorf("ir: %s: edge %s->%s missing back-pointer", f.Name, b.Name, s.Name)
		}
	}
	for _, p := range b.Preds {
		found := false
		for _, s := range p.Succs {
			if s == b {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("ir: %s: pred edge %s->%s missing forward-pointer", f.Name, p.Name, b.Name)
		}
	}
	inPhis := true
	for _, v := range b.Insns {
		if v.Op == OpPhi {
			if !inPhis {
				return fmt.Errorf("ir: %s: block %s has phi %s after non-phi", f.Name, b.Name, v.Name())
			}
			if len(v.Args) != len(b.Preds) {
				return fmt.Errorf("ir: %s: phi %s in %s has %d args for %d preds",
					f.Name, v.Name(), b.Name, len(v.Args), len(b.Preds))
			}
		} else {
			inPhis = false
		}
	}
	return nil
}

// VerifyModule verifies every function in the module.
func VerifyModule(m *Module) error {
	for _, f := range m.Funcs {
		if err := Verify(f); err != nil {
			return err
		}
	}
	return nil
}
