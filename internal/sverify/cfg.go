package sverify

import (
	"fmt"
	"sort"

	"straight/internal/isa/straight"
	"straight/internal/program"
)

// Function-entry discovery. STRAIGHT binaries carry no section metadata
// beyond the symbol table, so entry points are reconstructed from three
// sources, strongest first:
//
//  1. the image entry point,
//  2. every JAL target (direct calls),
//  3. text-symbol addresses that the program materializes as data — a
//     .word relocation in the data segment or a LUI/ORi pair in text —
//     which is how function pointers for JALR calls are formed.
//
// Class 3 candidates are only analyzed when no walk from a class 1/2
// root already covers them: a data word that happens to collide with a
// code address inside a real function must not spawn a bogus function
// analysis mid-body.

// roots returns the class 1/2 entry points (deduplicated, sorted).
func (a *analyzer) roots() []uint32 {
	set := map[uint32]bool{}
	if a.im.ContainsText(a.im.Entry) && a.im.Entry%program.InstructionBytes == 0 {
		set[a.im.Entry] = true
	}
	for i, w := range a.im.Text {
		inst, err := straight.Decode(w)
		if err != nil || inst.Op != straight.JAL {
			continue
		}
		pc := a.im.TextBase + uint32(i)*program.InstructionBytes
		t := pc + uint32(inst.Imm)*program.InstructionBytes
		if a.im.ContainsText(t) {
			set[t] = true
		}
	}
	out := make([]uint32, 0, len(set))
	for pc := range set {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pointerCandidates returns class 3 entry points: text-symbol addresses
// that appear as pointer material (data words, or LUI hi / ORi lo pairs
// in text). Non-symbol collisions are ignored outright.
func (a *analyzer) pointerCandidates() []uint32 {
	textSyms := map[uint32]bool{}
	for _, addr := range a.im.Symbols {
		if a.im.ContainsText(addr) && addr%program.InstructionBytes == 0 {
			textSyms[addr] = true
		}
	}
	set := map[uint32]bool{}
	for off := 0; off+4 <= len(a.im.Data); off += 4 {
		w := uint32(a.im.Data[off]) | uint32(a.im.Data[off+1])<<8 |
			uint32(a.im.Data[off+2])<<16 | uint32(a.im.Data[off+3])<<24
		// The range test first: most data words are not text addresses,
		// and it is far cheaper than the map lookup.
		if a.im.ContainsText(w) && textSyms[w] {
			set[w] = true
		}
	}
	// LUI imm24 immediately (or nearly) followed by ORi [1], imm8 is the
	// toolchain's address materialization idiom.
	for i, w := range a.im.Text {
		lui, err := straight.Decode(w)
		if err != nil || lui.Op != straight.LUI {
			continue
		}
		if i+1 >= len(a.im.Text) {
			break
		}
		ori, err := straight.Decode(a.im.Text[i+1])
		if err != nil || ori.Op != straight.ORI || ori.Src1 != 1 {
			continue
		}
		addr := uint32(lui.Imm)<<8 | uint32(ori.Imm)&0xFF
		if textSyms[addr] {
			set[addr] = true
		}
	}
	out := make([]uint32, 0, len(set))
	for pc := range set {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// block is one basic block of a function walk.
type block struct {
	start uint32 // first instruction address
	end   uint32 // first address past the block
	// succs are intra-function control-flow successors (branch targets
	// and fall-throughs; calls fall through to their return address).
	succs []uint32
	// in is the join of all incoming abstract states (nil until reached).
	in *state
	// firstPred and firstIn record the first edge that reached the block,
	// so a later conflicting edge can report both paths.
	firstPred uint32
	firstIn   state
}

// fn is a reconstructed function: every instruction reachable from one
// entry point via intra-function edges.
type fn struct {
	entry  uint32
	blocks map[uint32]*block
}

// insn pairs a decoded instruction with its address.
type insn struct {
	pc   uint32
	inst straight.Inst
}

// instructions decodes the block's instruction run.
func (a *analyzer) instructions(b *block) []insn {
	n := int(b.end-b.start) / program.InstructionBytes
	out := make([]insn, 0, n)
	for pc := b.start; pc < b.end; pc += program.InstructionBytes {
		w, err := a.im.FetchWord(pc)
		if err != nil {
			break
		}
		inst, err := straight.Decode(w)
		if err != nil {
			break
		}
		out = append(out, insn{pc, inst})
	}
	return out
}

// discover explores the function at entry: it walks every reachable
// instruction, validates control-flow targets, collects leader addresses
// and builds basic blocks. Structural diagnostics (bad decode, bad
// target, fall-off) are emitted here.
func (a *analyzer) discover(entry uint32) *fn {
	f := &fn{entry: entry, blocks: map[uint32]*block{}}
	insns := a.walk
	walked := a.walked[:0] // text indexes with an explored entry, in walk order
	leader := func(pc uint32) {
		if i, ok := a.textIndex(pc); ok {
			insns[i].leader = true
		}
	}
	leader(entry)

	work := append(a.work[:0], entry)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		idx, inText := a.textIndex(pc)
		if inText && insns[idx].done {
			continue
		}
		w, err := a.im.FetchWord(pc)
		if err != nil {
			// Only reachable via a validated edge, so this is a walk that
			// ran past the text segment.
			a.diag(Diagnostic{Kind: FallOff, PC: pc - program.InstructionBytes, Func: entry,
				Msg: "control flow runs past the end of the text segment"})
			continue
		}
		inst, err := straight.Decode(w)
		if err != nil {
			a.diag(Diagnostic{Kind: BadDecode, PC: pc, Func: entry, Msg: err.Error()})
			insns[idx].done, insns[idx].stop = true, true
			walked = append(walked, idx)
			continue
		}
		a.markVisited(pc)

		e := &insns[idx]
		branchTarget := func() (uint32, bool) {
			t := pc + uint32(inst.Imm)*program.InstructionBytes
			if !a.im.ContainsText(t) {
				a.diag(Diagnostic{Kind: BadTarget, PC: pc, Func: entry,
					Msg: fmt.Sprintf("%s target %#08x outside text", inst.Op, t)})
				return 0, false
			}
			if a.solidRoots[t] && t != entry {
				name := a.symbolAt(t)
				a.diag(Diagnostic{Kind: BadTarget, PC: pc, Func: entry,
					Msg: fmt.Sprintf("%s into entry of another function%s at %#08x", inst.Op, name, t)})
				return 0, false
			}
			return t, true
		}
		fallThrough := func() (uint32, bool) {
			nxt := pc + program.InstructionBytes
			if !a.im.ContainsText(nxt) {
				a.diag(Diagnostic{Kind: FallOff, PC: pc, Func: entry,
					Msg: "control flow falls off the end of the text segment"})
				return 0, false
			}
			if a.solidRoots[nxt] && nxt != entry {
				name := a.symbolAt(nxt)
				a.diag(Diagnostic{Kind: FallOff, PC: pc, Func: entry,
					Msg: fmt.Sprintf("control flow falls through into function%s at %#08x", name, nxt)})
				return 0, false
			}
			return nxt, true
		}

		switch inst.Op.Class() {
		case straight.ClassBranch:
			e.stop = true
			if t, ok := branchTarget(); ok {
				e.addSucc(t)
				leader(t)
			}
			if nxt, ok := fallThrough(); ok {
				e.addSucc(nxt)
				leader(nxt)
			}
		case straight.ClassJump:
			e.stop = true
			switch inst.Op {
			case straight.J:
				if t, ok := branchTarget(); ok {
					e.addSucc(t)
					leader(t)
				}
			case straight.JAL:
				// Direct call: validate the target (it is a root by
				// construction) and continue at the return address.
				t := pc + uint32(inst.Imm)*program.InstructionBytes
				if !a.im.ContainsText(t) {
					a.diag(Diagnostic{Kind: BadTarget, PC: pc, Func: entry,
						Msg: fmt.Sprintf("JAL target %#08x outside text", t)})
				}
				if nxt, ok := fallThrough(); ok {
					e.addSucc(nxt)
					leader(nxt)
				}
			case straight.JALR:
				// Indirect call: the target is a runtime value; continue at
				// the return address.
				if nxt, ok := fallThrough(); ok {
					e.addSucc(nxt)
					leader(nxt)
				}
			case straight.JR:
				// Return: the walk ends here.
			}
		case straight.ClassSys:
			if inst.Imm == straight.SysExit {
				e.stop = true
				break
			}
			if nxt, ok := fallThrough(); ok {
				e.addSucc(nxt)
			}
		default:
			if nxt, ok := fallThrough(); ok {
				e.addSucc(nxt)
			}
		}
		e.done = true
		walked = append(walked, idx)
		work = append(work, e.succs[:e.nsuccs]...)
	}

	// Form basic blocks: maximal straight runs from each reachable leader.
	for _, li := range walked {
		if !insns[li].leader {
			continue
		}
		lead := a.im.TextBase + uint32(li)*program.InstructionBytes
		b := &block{start: lead}
		i, pc := li, lead
		for {
			e := &insns[i]
			nxt := pc + program.InstructionBytes
			// A straight-line instruction's sole successor is nxt unless a
			// structural diagnostic removed it.
			if !e.stop && e.nsuccs == 1 && e.succs[0] == nxt && !insns[i+1].leader && insns[i+1].done {
				i, pc = i+1, nxt
				continue
			}
			b.end = nxt
			b.succs = append([]uint32(nil), e.succs[:e.nsuccs]...)
			break
		}
		f.blocks[lead] = b
	}
	// Every leader is in the text and was pushed, so walked lists every
	// entry this walk set: clear them for the next function.
	for _, i := range walked {
		insns[i] = explored{}
	}
	a.walked, a.work = walked, work
	return f
}

// explored is what discover learned of one instruction.
type explored struct {
	succs  [2]uint32 // intra-function successors: branch target, fall-through
	nsuccs uint8
	done   bool // walked
	stop   bool // ends a block regardless of leaders (control/terminator)
	leader bool // starts a block
}

func (e *explored) addSucc(pc uint32) {
	e.succs[e.nsuccs] = pc
	e.nsuccs++
}

// textIndex returns the index of the instruction at pc in the text
// segment; ok is false when pc is misaligned or outside it.
func (a *analyzer) textIndex(pc uint32) (int, bool) {
	off := pc - a.im.TextBase
	if !a.im.ContainsText(pc) || off%program.InstructionBytes != 0 {
		return 0, false
	}
	return int(off / program.InstructionBytes), true
}

// symbolAt formats the symbol name at addr for diagnostics (" <name>" or
// empty when unnamed).
func (a *analyzer) symbolAt(addr uint32) string {
	for name, sa := range a.im.Symbols {
		if sa == addr {
			return " " + name
		}
	}
	return ""
}
