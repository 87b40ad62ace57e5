package ir

// Mem2Reg promotes allocas whose every use is a full-word load or store of
// the alloca address into SSA values, inserting phi instructions at merge
// points. This is the standard construction (after Braun et al.) that
// turns the front end's storage-based locals into the SSA/phi form the
// paper's distance-fixing algorithm consumes.
func Mem2Reg(f *Func) {
	vars := promotableAllocas(f)
	if len(vars) == 0 {
		return
	}
	nb := f.nextBlockID + 1
	p := &promoter{
		f:        f,
		nb:       nb,
		varOf:    make([]int, f.nextID+1),
		lastDef:  make([]*Value, len(vars)*nb),
		entryVal: make([]*Value, len(vars)*nb),
	}
	for i, v := range vars {
		p.varOf[v.ID] = i + 1
	}

	// Phase A: resolve loads locally where a store precedes them in the
	// same block; record each block's final store per variable; collect
	// loads that need the value at block entry.
	type pendingLoad struct {
		load *Value
		avar int
	}
	var pending []pendingLoad
	cur := make([]*Value, len(vars)) // by variable: its value so far in the block
	for _, b := range f.Blocks {
		clear(cur)
		for _, v := range b.Insns {
			switch v.Op {
			case OpLoad:
				if avar, ok := p.promoted(v.Args[0]); ok {
					if def := cur[avar]; def != nil {
						f.ReplaceUses(v, def)
					} else {
						pending = append(pending, pendingLoad{v, avar})
					}
				}
			case OpStore:
				if avar, ok := p.promoted(v.Args[0]); ok {
					cur[avar] = v.Args[1]
				}
			}
		}
		for avar, def := range cur {
			if def != nil {
				p.lastDef[p.slot(avar, b)] = def
			}
		}
	}

	// Phase B: resolve entry values, inserting phis as needed. A pending
	// load may itself be recorded as a block's last def (a store of a
	// loaded value), so the tables are substituted along with the IR uses.
	for _, pl := range pending {
		def := p.readAtEntry(pl.avar, pl.load.Block)
		f.ReplaceUses(pl.load, def)
		for _, table := range [2][]*Value{p.lastDef, p.entryVal} {
			for i, val := range table {
				if val == pl.load {
					table[i] = def
				}
			}
		}
	}

	// Remove the promoted allocas and their loads/stores.
	for _, b := range f.Blocks {
		insns := b.Insns[:0]
		for _, v := range b.Insns {
			switch v.Op {
			case OpAlloca:
				if _, ok := p.promoted(v); ok {
					continue
				}
			case OpLoad:
				if _, ok := p.promoted(v.Args[0]); ok {
					continue
				}
			case OpStore:
				if _, ok := p.promoted(v.Args[0]); ok {
					continue
				}
			}
			insns = append(insns, v)
		}
		b.Insns = insns
	}

	removeTrivialPhis(f)
}

// promoter holds, per promoted variable and block, the variable's value
// at the block's end and entry: tables indexed by slot, nil where not
// yet known.
type promoter struct {
	f        *Func
	nb       int      // block IDs per variable
	varOf    []int    // by value ID: 1 + the variable an alloca promotes to, or 0
	lastDef  []*Value // value of var at end of block
	entryVal []*Value // value of var at entry of block
}

func (p *promoter) slot(avar int, b *Block) int { return avar*p.nb + b.ID }

// promoted returns the variable an alloca promotes to. Mem2Reg makes no
// allocas, so every alloca's ID is inside varOf.
func (p *promoter) promoted(v *Value) (int, bool) {
	if v.Op != OpAlloca || p.varOf[v.ID] == 0 {
		return 0, false
	}
	return p.varOf[v.ID] - 1, true
}

// readAtEnd returns the variable's value at the end of block b.
func (p *promoter) readAtEnd(avar int, b *Block) *Value {
	if def := p.lastDef[p.slot(avar, b)]; def != nil {
		return def
	}
	return p.readAtEntry(avar, b)
}

// readAtEntry returns the variable's value at the entry of block b,
// inserting a phi (memoized before recursion, to break cycles) when b has
// multiple predecessors.
func (p *promoter) readAtEntry(avar int, b *Block) *Value {
	s := p.slot(avar, b)
	if v := p.entryVal[s]; v != nil {
		return v
	}
	switch len(b.Preds) {
	case 0:
		// Entry block (or unreachable): the variable is uninitialized;
		// define it as zero at the top of the block.
		undef := p.f.NewValue(OpConst, TypeI32)
		b.InsertPhi(undef) // before non-phis; constants are position-safe here
		p.entryVal[s] = undef
		return undef
	case 1:
		v := p.readAtEnd(avar, b.Preds[0])
		p.entryVal[s] = v
		return v
	default:
		phi := p.f.NewValue(OpPhi, TypeI32)
		b.InsertPhi(phi)
		p.entryVal[s] = phi
		for _, pred := range b.Preds {
			phi.Args = append(phi.Args, p.readAtEnd(avar, pred))
		}
		return phi
	}
}

// removeTrivialPhis deletes phis whose arguments are all the same value
// (or the phi itself), iterating to a fixpoint.
func removeTrivialPhis(f *Func) {
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			// Snapshot: RemoveInsn shifts b.Insns under the iteration.
			phis := append([]*Value(nil), b.Phis()...)
			for _, v := range phis {
				if v.Op != OpPhi || v.Block != b {
					continue
				}
				var same *Value
				trivial := true
				for _, a := range v.Args {
					if a == v || a == same {
						continue
					}
					if same != nil {
						trivial = false
						break
					}
					same = a
				}
				if !trivial || same == nil {
					continue
				}
				f.ReplaceUses(v, same)
				b.RemoveInsn(v)
				changed = true
			}
		}
	}
}

// promotableAllocas returns allocas used only as the address of full-word
// loads and stores (never as a stored value, call argument, or in pointer
// arithmetic — those must stay in memory).
func promotableAllocas(f *Func) []*Value {
	escaped := newValueSet(f)
	var allocas []*Value
	for _, b := range f.Blocks {
		for _, v := range b.Insns {
			if v.Op == OpAlloca && v.Aux == 4 {
				allocas = append(allocas, v)
			}
			for i, a := range v.Args {
				if a.Op != OpAlloca {
					continue
				}
				ok := (v.Op == OpLoad && i == 0 && MemKind(v.Aux) == MemW) ||
					(v.Op == OpStore && i == 0 && MemKind(v.Aux) == MemW)
				if !ok {
					escaped.add(a.ID)
				}
			}
		}
	}
	var out []*Value
	for _, a := range allocas {
		if !escaped.has(a.ID) {
			out = append(out, a)
		}
	}
	return out
}
