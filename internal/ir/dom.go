package ir

// Dominator-tree computation using the Cooper–Harvey–Kennedy iterative
// algorithm. The verifier uses dominance to check SSA def-before-use, and
// the backends use it for sanity checks on value lifetimes.

// DomTree holds immediate dominators for the reachable blocks of a
// function, indexed by Block.ID.
type DomTree struct {
	idom  []*Block // nil for unreachable blocks; the entry's is itself
	order []int    // RPO number
}

// BuildDomTree computes the dominator tree of f's reachable blocks.
func BuildDomTree(f *Func) *DomTree {
	rpo := f.RPO()
	d := &DomTree{idom: make([]*Block, f.nextBlockID+1), order: make([]int, f.nextBlockID+1)}
	if len(rpo) == 0 {
		return d
	}
	for i, b := range rpo {
		d.order[b.ID] = i
	}
	entry := rpo[0]
	d.idom[entry.ID] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if d.idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b.ID] != newIdom {
				d.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for d.order[a.ID] > d.order[b.ID] {
			a = d.idom[a.ID]
		}
		for d.order[b.ID] > d.order[a.ID] {
			b = d.idom[b.ID]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (entry returns itself).
func (d *DomTree) IDom(b *Block) *Block { return d.idom[b.ID] }

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *Block) bool {
	if !d.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.idom[b.ID]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Reachable reports whether b is reachable from the entry.
func (d *DomTree) Reachable(b *Block) bool { return d.idom[b.ID] != nil }
