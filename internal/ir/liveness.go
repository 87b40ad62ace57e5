package ir

import "math/bits"

// Liveness computes per-block live-in/live-out sets of SSA values with
// the usual phi convention: a phi's i-th argument is live-out of the i-th
// predecessor (not live-in of the phi's block); the phi itself is treated
// as defined at its block's entry.
//
// The STRAIGHT backend builds its register frames (the fixed ordering of
// live values at block entry that makes operand distances path-invariant,
// paper §IV-C2) directly from these sets.
type Liveness struct {
	words int      // words per set
	in    []uint64 // the live-in set of block ID i at [i*words:(i+1)*words]
	out   []uint64
	vals  []*Value // by ID: the values the sets hold
}

// In returns the values live into b, in ID order.
func (lv *Liveness) In(b *Block) []*Value { return lv.values(lv.in, b) }

// Out returns the values live out of b, in ID order.
func (lv *Liveness) Out(b *Block) []*Value { return lv.values(lv.out, b) }

// LiveOut reports whether v is live out of b.
func (lv *Liveness) LiveOut(b *Block, v *Value) bool { return lv.set(lv.out, b).has(v.ID) }

func (lv *Liveness) set(sets []uint64, b *Block) bitset {
	return sets[b.ID*lv.words : (b.ID+1)*lv.words]
}

func (lv *Liveness) values(sets []uint64, b *Block) []*Value {
	var out []*Value
	for w, word := range lv.set(sets, b) {
		for word != 0 {
			out = append(out, lv.vals[w<<6+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return out
}

// ComputeLiveness runs backward dataflow to a fixpoint.
func ComputeLiveness(f *Func) *Liveness {
	words := valueWords(f)
	sets := make([]uint64, 4*(f.nextBlockID+1)*words)
	per := len(sets) / 4
	lv := &Liveness{words: words, in: sets[:per], out: sets[per : 2*per], vals: make([]*Value, f.nextID+1)}
	// use[b]: values used in b before any def in b (phis excluded —
	// their args belong to predecessors). def[b]: values defined in b
	// (including phis).
	use, def := sets[2*per:3*per], sets[3*per:]
	for _, b := range f.Blocks {
		u, d := lv.set(use, b), lv.set(def, b)
		for _, v := range b.Insns {
			if v.Op != OpPhi {
				for _, a := range v.Args {
					if !d.has(a.ID) && producesValue(a) {
						u.add(a.ID)
						lv.vals[a.ID] = a
					}
				}
			}
			d.add(v.ID)
			lv.vals[v.ID] = v
		}
	}
	// Iterate to fixpoint over the reverse postorder reversed (postorder)
	// for fast convergence. The sets only grow, so each is updated in
	// place.
	rpo := f.RPO()
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := lv.set(lv.out, b)
			for _, s := range b.Succs {
				// A successor's live-in never contains its own phis
				// (they are defs of s), so no filtering is needed; and a
				// phi ARG may legitimately be a phi — including the phi
				// itself on a loop back edge — so args are added as-is.
				for w, word := range lv.set(lv.in, s) {
					if out[w]|word != out[w] {
						out[w] |= word
						changed = true
					}
				}
				idx := s.PredIndex(b)
				for _, phi := range s.Phis() {
					a := phi.Args[idx]
					if producesValue(a) && !out.has(a.ID) {
						out.add(a.ID)
						lv.vals[a.ID] = a
						changed = true
					}
				}
			}
			in, u, d := lv.set(lv.in, b), lv.set(use, b), lv.set(def, b)
			for w := range in {
				if word := u[w] | out[w]&^d[w]; word != in[w] {
					in[w] = word
					changed = true
				}
			}
		}
	}
	return lv
}

// producesValue reports whether v yields a register value that liveness
// should track (void calls, stores, and terminators do not).
func producesValue(v *Value) bool {
	switch v.Op {
	case OpStore, OpRet, OpBr, OpCondBr:
		return false
	case OpCall:
		return v.Type != TypeVoid
	}
	return true
}

// LoopInfo describes the natural loops of a function.
type LoopInfo struct {
	// Loops maps each loop header to the set of blocks in its natural
	// loop (including the header).
	Loops map[*Block]map[*Block]bool
}

// FindLoops locates natural loops via back edges (tail -> header where
// header dominates tail).
func FindLoops(f *Func) *LoopInfo {
	dom := BuildDomTree(f)
	li := &LoopInfo{Loops: make(map[*Block]map[*Block]bool)}
	for _, b := range f.RPO() {
		for _, s := range b.Succs {
			if dom.Dominates(s, b) {
				// Back edge b -> s: collect the natural loop.
				body := li.Loops[s]
				if body == nil {
					body = map[*Block]bool{s: true}
					li.Loops[s] = body
				}
				var stack []*Block
				if !body[b] {
					body[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if n == s {
						continue
					}
					for _, p := range n.Preds {
						if !body[p] {
							body[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	return li
}
