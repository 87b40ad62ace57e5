package riscvbe

import (
	"fmt"
	"sort"
	"strings"

	"straight/internal/isa/riscv"
)

// regAlloc performs linear-scan register allocation over the lowered
// virtual-register code.
//
// Live intervals are the convex hulls of each virtual register's def/use
// positions, extended across loop back edges (any interval live at a
// backward-branch target stretches to the branch), which over-
// approximates liveness safely. Intervals that cross a call site are
// restricted to callee-saved registers; the rest prefer caller-saved.
// Unallocatable intervals spill to frame slots, with t0/t1 reserved as
// load/store scratch registers.
type regAlloc struct {
	fe *fnEmitter

	intervals map[int]*interval // by vreg
	callPos   []int

	regOf   map[int]int // vreg -> physical
	slotOf  map[int]int // vreg -> frame offset (spills)
	usedCS  map[int]bool
	spillSz int

	out *strings.Builder // the function's assembly, written by rewrite
}

type interval struct {
	vr         int
	start, end int
	crossCall  bool
}

func newRegAlloc(fe *fnEmitter, out *strings.Builder) *regAlloc {
	return &regAlloc{
		fe:        fe,
		out:       out,
		intervals: make(map[int]*interval),
		regOf:     make(map[int]int),
		slotOf:    make(map[int]int),
		usedCS:    make(map[int]bool),
	}
}

func (ra *regAlloc) run() error {
	ra.buildIntervals()
	if err := ra.allocate(); err != nil {
		return err
	}
	return ra.rewrite()
}

func (ra *regAlloc) buildIntervals() {
	touch := func(vr, pos int) {
		if vr >= 0 {
			return
		}
		iv := ra.intervals[vr]
		if iv == nil {
			iv = &interval{vr: vr, start: pos, end: pos}
			ra.intervals[vr] = iv
			return
		}
		if pos < iv.start {
			iv.start = pos
		}
		if pos > iv.end {
			iv.end = pos
		}
	}
	labelPos := make(map[string]int)
	callIdx := 0
	type argUse struct{ pos, vr int }
	var argUses []argUse
	for pos, in := range ra.fe.code {
		switch in.op {
		case "label":
			labelPos[in.sym] = pos
		case "call":
			ra.callPos = append(ra.callPos, pos)
			for _, vr := range ra.fe.callArgs[callIdx] {
				argUses = append(argUses, argUse{pos, vr})
			}
			callIdx++
			touch(in.rs1, pos)
			continue
		case "syscall":
			ra.callPos = append(ra.callPos, pos)
		}
		touch(in.rd, pos)
		touch(in.rs1, pos)
		touch(in.rs2, pos)
	}
	for _, au := range argUses {
		if au.vr < 0 {
			iv := ra.intervals[au.vr]
			if iv == nil {
				ra.intervals[au.vr] = &interval{vr: au.vr, start: au.pos, end: au.pos}
			} else {
				if au.pos < iv.start {
					iv.start = au.pos
				}
				if au.pos > iv.end {
					iv.end = au.pos
				}
			}
		}
	}
	// Back-edge extension to a fixpoint.
	type backEdge struct{ target, branch int }
	var backs []backEdge
	for pos, in := range ra.fe.code {
		switch in.op {
		case "j", "bne", "beq", "blt", "bge", "bltu", "bgeu":
			if t, ok := labelPos[in.sym]; ok && t < pos {
				backs = append(backs, backEdge{t, pos})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, be := range backs {
			for _, iv := range ra.intervals {
				if iv.start <= be.target && iv.end >= be.target && iv.end < be.branch {
					iv.end = be.branch
					changed = true
				}
			}
		}
	}
	for _, iv := range ra.intervals {
		for _, cp := range ra.callPos {
			if iv.start < cp && iv.end > cp {
				iv.crossCall = true
				break
			}
		}
	}
}

func (ra *regAlloc) allocate() error {
	ivs := make([]*interval, 0, len(ra.intervals))
	for _, iv := range ra.intervals {
		ivs = append(ivs, iv)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].vr > ivs[j].vr
	})
	type activeEntry struct {
		iv  *interval
		reg int
	}
	var active []activeEntry
	free := make(map[int]bool)
	for _, r := range callerSaved {
		free[r] = true
	}
	for _, r := range calleeSaved {
		free[r] = true
	}
	expire := func(pos int) {
		kept := active[:0]
		for _, ae := range active {
			if ae.iv.end < pos {
				free[ae.reg] = true
			} else {
				kept = append(kept, ae)
			}
		}
		active = kept
	}
	pickReg := func(iv *interval) int {
		if iv.crossCall {
			for _, r := range calleeSaved {
				if free[r] {
					return r
				}
			}
			return -1
		}
		for _, r := range callerSaved {
			if free[r] {
				return r
			}
		}
		for _, r := range calleeSaved {
			if free[r] {
				return r
			}
		}
		return -1
	}
	for _, iv := range ivs {
		expire(iv.start)
		r := pickReg(iv)
		if r < 0 {
			// Spill the conflicting interval with the furthest end (or
			// this one).
			victim := -1
			furthest := iv.end
			for i, ae := range active {
				if iv.crossCall && !isCalleeSaved(ae.reg) {
					continue
				}
				if ae.iv.end > furthest {
					furthest = ae.iv.end
					victim = i
				}
			}
			if victim >= 0 {
				ae := active[victim]
				ra.spillVR(ae.iv.vr)
				delete(ra.regOf, ae.iv.vr)
				r = ae.reg
				active = append(active[:victim], active[victim+1:]...)
			} else {
				ra.spillVR(iv.vr)
				continue
			}
		}
		free[r] = false
		ra.regOf[iv.vr] = r
		if isCalleeSaved(r) {
			ra.usedCS[r] = true
		}
		active = append(active, activeEntry{iv, r})
	}
	return nil
}

func isCalleeSaved(r int) bool {
	for _, c := range calleeSaved {
		if c == r {
			return true
		}
	}
	return false
}

func (ra *regAlloc) spillVR(vr int) {
	if _, ok := ra.slotOf[vr]; ok {
		return
	}
	ra.slotOf[vr] = ra.fe.allocaSz + ra.spillSz
	ra.spillSz += 4
}

// ---- Rewrite ----

// loc returns the physical register for a vreg use, loading spilled
// values into the given scratch register first.
func (ra *regAlloc) loc(vr int, scratch int) int {
	if vr >= 0 {
		return vr
	}
	if r, ok := ra.regOf[vr]; ok {
		return r
	}
	slot, ok := ra.slotOf[vr]
	if !ok {
		// A vreg that was never allocated nor spilled has no uses that
		// matter (dead def); give it a scratch.
		return scratch
	}
	ra.emitf("lw %s, %d(sp)", regName(scratch), slot)
	return scratch
}

// defLoc returns the register an instruction should write, plus a
// post-store if the destination is spilled.
func (ra *regAlloc) defLoc(vr int, scratch int) (int, func()) {
	if vr >= 0 {
		return vr, nil
	}
	if r, ok := ra.regOf[vr]; ok {
		return r, nil
	}
	slot, ok := ra.slotOf[vr]
	if !ok {
		return scratch, nil // dead def
	}
	return scratch, func() { ra.emitf("sw %s, %d(sp)", regName(scratch), slot) }
}

func regName(r int) string { return riscv.RegNames[r] }

func (ra *regAlloc) emitf(format string, args ...any) {
	ra.out.WriteString("    ")
	fmt.Fprintf(ra.out, format, args...)
	ra.out.WriteByte('\n')
}

func (ra *regAlloc) frameSize() int {
	n := ra.fe.allocaSz + ra.spillSz + 4 // + ra slot
	n += 4 * len(ra.usedCS)
	return (n + 15) &^ 15
}

func (ra *regAlloc) savedRegs() []int {
	var rs []int
	for r := range ra.usedCS {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	return rs
}

func (ra *regAlloc) rewrite() error {
	frame := ra.frameSize()
	if frame > 2040 {
		return fmt.Errorf("riscvbe: frame size %d exceeds the 12-bit offset range", frame)
	}
	raSlot := ra.fe.allocaSz + ra.spillSz
	csBase := raSlot + 4

	// Prologue.
	ra.emitf("addi sp, sp, %d", -frame)
	ra.emitf("sw ra, %d(sp)", raSlot)
	for i, r := range ra.savedRegs() {
		ra.emitf("sw %s, %d(sp)", regName(r), csBase+4*i)
	}

	epilogue := func() {
		for i, r := range ra.savedRegs() {
			ra.emitf("lw %s, %d(sp)", regName(r), csBase+4*i)
		}
		ra.emitf("lw ra, %d(sp)", raSlot)
		ra.emitf("addi sp, sp, %d", frame)
		ra.emitf("ret")
	}

	callIdx := 0
	for _, in := range ra.fe.code {
		switch in.op {
		case "label":
			ra.out.WriteString(in.sym)
			ra.out.WriteString(":\n")
		case "li":
			rd, post := ra.defLoc(in.rd, pT0)
			ra.emitf("li %s, %d", regName(rd), in.imm)
			if post != nil {
				post()
			}
		case "la":
			rd, post := ra.defLoc(in.rd, pT0)
			ra.emitf("la %s, %s", regName(rd), in.sym)
			if post != nil {
				post()
			}
		case "lea":
			rd, post := ra.defLoc(in.rd, pT0)
			ra.emitf("addi %s, sp, %d", regName(rd), in.imm)
			if post != nil {
				post()
			}
		case "ldarg":
			rd, post := ra.defLoc(in.rd, pT0)
			ra.emitf("lw %s, %d(sp)", regName(rd), int32(frame)+in.imm)
			if post != nil {
				post()
			}
		case "mv":
			rs := ra.loc(in.rs1, pT0)
			rd, post := ra.defLoc(in.rd, pT0)
			if rd != rs {
				ra.emitf("mv %s, %s", regName(rd), regName(rs))
			}
			if post != nil {
				post()
			}
		case "epilogue":
			epilogue()
		case "j":
			ra.emitf("j %s", in.sym)
		case "bne", "beq", "blt", "bge", "bltu", "bgeu":
			rs1 := ra.loc(in.rs1, pT0)
			rs2 := ra.loc(in.rs2, pT1)
			ra.emitf("%s %s, %s, %s", in.op, regName(rs1), regName(rs2), in.sym)
		case "syscall":
			arg := ra.loc(in.rs1, pT0)
			if arg != pA0 {
				ra.emitf("mv a0, %s", regName(arg))
			}
			ra.emitf("li a7, %d", in.imm)
			ra.emitf("ecall")
		case "call":
			args := ra.fe.callArgs[callIdx]
			callIdx++
			ra.emitCallMoves(args)
			if in.sym != "" {
				ra.emitf("call %s", in.sym)
			} else {
				// Argument staging only writes a-registers, which are not
				// allocatable, so the target register is never clobbered.
				tgt := ra.loc(in.rs1, pT1)
				ra.emitf("jalr ra, 0(%s)", regName(tgt))
			}
		case "lw", "lb", "lbu", "lh", "lhu":
			base := ra.loc(in.rs1, pT0)
			rd, post := ra.defLoc(in.rd, pT0)
			ra.emitf("%s %s, %d(%s)", in.op, regName(rd), in.imm, regName(base))
			if post != nil {
				post()
			}
		case "sw", "sb", "sh":
			base := ra.loc(in.rs1, pT0)
			val := ra.loc(in.rs2, pT1)
			ra.emitf("%s %s, %d(%s)", in.op, regName(val), in.imm, regName(base))
		case "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu":
			rs := ra.loc(in.rs1, pT0)
			rd, post := ra.defLoc(in.rd, pT0)
			ra.emitf("%s %s, %s, %d", in.op, regName(rd), regName(rs), in.imm)
			if post != nil {
				post()
			}
		default:
			// Three-register ALU form.
			rs1 := ra.loc(in.rs1, pT0)
			rs2 := ra.loc(in.rs2, pT1)
			rd, post := ra.defLoc(in.rd, pT0)
			ra.emitf("%s %s, %s, %s", in.op, regName(rd), regName(rs1), regName(rs2))
			if post != nil {
				post()
			}
		}
	}
	return nil
}

// emitCallMoves stages argument values into a0..a(n-1) as a parallel copy
// (sources may themselves be argument registers).
func (ra *regAlloc) emitCallMoves(args []int) {
	type mv struct{ dst, src int }
	var copies []mv
	for i, vr := range args {
		dst := pA0 + i
		if vr >= 0 {
			if vr != dst {
				copies = append(copies, mv{dst, vr})
			}
			continue
		}
		if r, ok := ra.regOf[vr]; ok {
			if r != dst {
				copies = append(copies, mv{dst, r})
			}
			continue
		}
		if slot, ok := ra.slotOf[vr]; ok {
			// Loads can go directly into the argument register; they read
			// memory, which no copy clobbers.
			ra.emitf("lw %s, %d(sp)", regName(pA0+i), slot)
			continue
		}
		// Dead/unallocated (constant-dead path): zero it.
		ra.emitf("mv %s, zero", regName(dst))
	}
	for len(copies) > 0 {
		progress := false
		for i, c := range copies {
			blocked := false
			for j, o := range copies {
				if j != i && o.src == c.dst {
					blocked = true
					break
				}
			}
			if !blocked {
				ra.emitf("mv %s, %s", regName(c.dst), regName(c.src))
				copies = append(copies[:i], copies[i+1:]...)
				progress = true
				break
			}
		}
		if !progress {
			ra.emitf("mv t0, %s", regName(copies[0].src))
			copies[0].src = pT0
		}
	}
}
