package sverify

import (
	"fmt"

	"straight/internal/isa/straight"
	"straight/internal/program"
)

// Window barriers. Operand distances are relative, so the analysis does
// not need absolute register-pointer values: what matters is how far an
// operand reaches *past* the point where the window's contents stop
// being this function's own instructions. That point — the barrier — is
// the function entry (below it lies the caller's produce sequence) or
// the most recent call return (below it lies the callee's tail, whose
// length is unknown beyond the fixed JR/return-value slots).
const (
	barCaller = iota // function entry; below = caller window (arguments, link)
	barProg          // program entry; below = nothing (uninitialized)
	barCall          // call return; below = callee tail of unknown depth
	barMixed         // paths disagree on which barrier applies
)

// state is the abstract state at a program point: the depth range since
// the barrier across all paths (saturated at sat), the barrier itself,
// and the cumulative SP offset.
type state struct {
	lo, hi  int
	barKind int
	barSite uint32 // call PC for barCall
	sp      int32
	spBad   bool // paths disagree on sp; reported once at the join

	// prov/spProv remember the join that made the range ambiguous / the
	// SP conflicting, so reads can report the two conflicting paths.
	prov   *mergeEvent
	spProv *mergeEvent
}

// mergeEvent records one conflicting join for diagnostics.
type mergeEvent struct {
	paths [2]Path
}

type diagKey struct {
	kind Kind
	pc   uint32
}

type analyzer struct {
	im     *program.Image
	cfg    Config
	bound  int
	sat    int // depth saturation: bound+1 ("deeper than any operand reaches")
	reach  int
	report *Report

	solidRoots map[uint32]bool
	visited    []bool // per text index, across all function walks
	seen       map[diagKey]bool

	// discover's scratch, kept between functions: per text index, and
	// the walked indexes and work list of the current function.
	walk   []explored
	walked []int
	work   []uint32
}

func newAnalyzer(im *program.Image, cfg Config) *analyzer {
	a := &analyzer{
		im:      im,
		cfg:     cfg,
		bound:   cfg.bound(),
		reach:   cfg.callReach(),
		report:  &Report{im: im},
		visited: make([]bool, len(im.Text)),
		walk:    make([]explored, len(im.Text)),
		seen:    map[diagKey]bool{},
	}
	a.sat = a.bound + 1
	return a
}

func (a *analyzer) markVisited(pc uint32) {
	a.visited[(pc-a.im.TextBase)/program.InstructionBytes] = true
}

// diag records a diagnostic, deduplicated by (kind, pc).
func (a *analyzer) diag(d Diagnostic) {
	k := diagKey{d.Kind, d.PC}
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.report.Diags = append(a.report.Diags, d)
}

func (a *analyzer) run() {
	roots := a.roots()
	a.solidRoots = make(map[uint32]bool, len(roots))
	for _, r := range roots {
		a.solidRoots[r] = true
	}
	for _, r := range roots {
		bar := barCaller
		if r == a.im.Entry {
			bar = barProg
		}
		a.verifyFunc(r, bar)
	}
	// Indirect-call candidates: only those no solid walk already covers.
	for _, r := range a.pointerCandidates() {
		if a.visited[(r-a.im.TextBase)/program.InstructionBytes] {
			continue
		}
		a.verifyFunc(r, barCaller)
	}
	for i, v := range a.visited {
		if v {
			a.report.Insns++
			continue
		}
		inst, err := straight.Decode(a.im.Text[i])
		if err == nil && inst.Op == straight.NOP {
			continue // padding
		}
		pc := a.im.TextBase + uint32(i)*program.InstructionBytes
		a.diag(Diagnostic{Kind: Unreachable, PC: pc,
			Msg: "instruction is not reachable from any function entry"})
	}
}

func sat1(a *analyzer, d int) int {
	if d >= a.sat {
		return a.sat
	}
	return d
}

// verifyFunc reconstructs the function at entry and runs the dataflow
// fixpoint over its blocks.
func (a *analyzer) verifyFunc(entry uint32, barKind int) {
	f := a.discover(entry)
	root := f.blocks[entry]
	if root == nil {
		return
	}
	a.report.Funcs++

	init := state{lo: 0, hi: 0, barKind: barKind, barSite: entry}
	root.in = &init
	root.firstPred = entry
	root.firstIn = init

	work := []uint32{entry}
	inWork := map[uint32]bool{entry: true}
	for len(work) > 0 {
		start := work[0]
		work = work[1:]
		inWork[start] = false
		b := f.blocks[start]
		if b == nil || b.in == nil {
			continue
		}
		out, lastPC := a.transfer(f, b, *b.in)
		for _, s := range b.succs {
			sb := f.blocks[s]
			if sb == nil {
				continue
			}
			if a.merge(f, sb, out, lastPC) && !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
}

// merge joins the edge state into the successor block, returning whether
// the block's in-state changed (and it must be (re)processed).
func (a *analyzer) merge(f *fn, b *block, s state, predPC uint32) bool {
	if b.in == nil {
		cp := s
		b.in = &cp
		b.firstPred = predPC
		b.firstIn = s
		return true
	}
	cur := b.in
	changed := false

	// Depth range: widen to cover the incoming path.
	if s.lo < cur.lo || s.hi > cur.hi {
		ev := &mergeEvent{paths: [2]Path{
			{JoinPC: b.start, PredPC: b.firstPred, Depth: cur.hi, SP: cur.sp},
			{JoinPC: b.start, PredPC: predPC, Depth: s.hi, SP: s.sp},
		}}
		if s.lo < cur.lo {
			cur.lo = s.lo
		}
		if s.hi > cur.hi {
			cur.hi = s.hi
		}
		cur.prov = ev
		changed = true
	} else if cur.prov == nil && s.prov != nil {
		cur.prov = s.prov
		changed = true
	}

	// Barrier: paths that disagree degrade to barMixed; any read past a
	// mixed barrier is inherently path-dependent.
	if cur.barKind != barMixed &&
		(s.barKind != cur.barKind || (s.barKind == barCall && s.barSite != cur.barSite)) {
		if cur.prov == nil {
			cur.prov = &mergeEvent{paths: [2]Path{
				{JoinPC: b.start, PredPC: b.firstPred, Depth: cur.hi, SP: cur.sp},
				{JoinPC: b.start, PredPC: predPC, Depth: s.hi, SP: s.sp},
			}}
		}
		cur.barKind = barMixed
		changed = true
	}

	// SP offset: a mismatch at a join is itself a violation (frame
	// addressing is already broken on one path); report it here, where
	// both paths are known.
	if !cur.spBad {
		if s.spBad {
			cur.spBad = true
			cur.spProv = s.spProv
			changed = true
		} else if s.sp != cur.sp {
			ev := &mergeEvent{paths: [2]Path{
				{JoinPC: b.start, PredPC: b.firstPred, Depth: cur.hi, SP: cur.sp},
				{JoinPC: b.start, PredPC: predPC, Depth: s.hi, SP: s.sp},
			}}
			d := Diagnostic{Kind: SPMismatch, PC: b.start, Func: f.entry,
				Msg:   fmt.Sprintf("SP offset differs across joining paths (%+d vs %+d bytes)", cur.sp, s.sp),
				Paths: ev.paths, HavePaths: true}
			a.diag(d)
			cur.spBad = true
			cur.spProv = ev
			changed = true
		}
	}
	return changed
}

// transfer runs the block's instructions over the state, checking every
// source operand, and returns the out-state plus the block's last PC
// (the edge provenance for successors).
func (a *analyzer) transfer(f *fn, b *block, s state) (state, uint32) {
	lastPC := b.start
	for _, in := range a.instructions(b) {
		lastPC = in.pc
		a.checkSources(f, in, &s)
		switch in.inst.Op {
		case straight.SPADD:
			if !s.spBad {
				s.sp += in.inst.Imm
			}
		case straight.JR:
			if !s.spBad && s.sp != 0 {
				a.diag(Diagnostic{Kind: UnbalancedSP, PC: in.pc, Func: f.entry,
					Msg: fmt.Sprintf("return with cumulative SP offset %+d bytes (SPADDs do not balance)", s.sp)})
			}
		case straight.JAL, straight.JALR:
			// The callee executes an unknown number of instructions; every
			// pre-call distance is dead. The window below the return point
			// is the callee's tail.
			s.lo, s.hi = 0, 0
			s.barKind, s.barSite = barCall, in.pc
			s.prov = nil
		}
		s.lo = sat1(a, s.lo+1)
		s.hi = sat1(a, s.hi+1)
	}
	return s, lastPC
}

// checkSources validates each distance-addressed source of the
// instruction against the state before it executes.
func (a *analyzer) checkSources(f *fn, in insn, s *state) {
	check := func(role string, d int) {
		if d == 0 {
			return // zero register
		}
		if d > a.bound {
			a.diag(Diagnostic{Kind: OverBound, PC: in.pc, Func: f.entry,
				Msg: fmt.Sprintf("%s %s distance %d exceeds bound %d", in.inst.Op, role, d, a.bound)})
			return
		}
		if d <= s.lo {
			return // resolves within this function's own window on every path
		}
		// The operand reaches past the barrier on at least one path.
		if s.lo != s.hi {
			dg := Diagnostic{Kind: JoinMismatch, PC: in.pc, Func: f.entry,
				Msg: fmt.Sprintf("%s %s [%d] resolves to a different producer depending on path: depth since %s is %s",
					in.inst.Op, role, d, barrierName(s.barKind, s.barSite), rangeString(s.lo, s.hi, a.sat))}
			if s.prov != nil {
				dg.Paths = s.prov.paths
				dg.HavePaths = true
			}
			a.diag(dg)
			return
		}
		// Exact depth on every path: the reach past the barrier is a fixed
		// slot; legality depends on what lies below the barrier.
		past := d - s.lo
		switch s.barKind {
		case barCaller:
			// A fixed caller-window slot: the calling convention's argument
			// and link area. Always path-consistent.
		case barProg:
			a.diag(Diagnostic{Kind: ReadBeforeEntry, PC: in.pc, Func: f.entry,
				Msg: fmt.Sprintf("%s %s [%d] reads %d slot(s) before the first executed instruction (uninitialized)",
					in.inst.Op, role, d, past)})
		case barCall:
			if past > a.reach {
				a.diag(Diagnostic{Kind: CrossCall, PC: in.pc, Func: f.entry,
					Msg: fmt.Sprintf("%s %s [%d] reaches %d slot(s) past the call at %#08x; only the callee's fixed return sequence (JR at 1, return value at 2) is path-independent",
						in.inst.Op, role, d, past, s.barSite)})
			}
		case barMixed:
			dg := Diagnostic{Kind: JoinMismatch, PC: in.pc, Func: f.entry,
				Msg: fmt.Sprintf("%s %s [%d] reaches past different window barriers depending on path",
					in.inst.Op, role, d)}
			if s.prov != nil {
				dg.Paths = s.prov.paths
				dg.HavePaths = true
			}
			a.diag(dg)
		}
	}

	inst := in.inst
	switch inst.Op.Format() {
	case straight.FmtR, straight.FmtS:
		check("src1", int(inst.Src1))
		check("src2", int(inst.Src2))
	case straight.FmtI, straight.FmtJR:
		check("src1", int(inst.Src1))
	}
}

func barrierName(kind int, site uint32) string {
	switch kind {
	case barCaller:
		return "function entry"
	case barProg:
		return "program entry"
	case barCall:
		return fmt.Sprintf("the call at %#08x", site)
	}
	return "the window barrier"
}

func rangeString(lo, hi, sat int) string {
	h := fmt.Sprint(hi)
	if hi >= sat {
		h = "beyond the bound"
	}
	return fmt.Sprintf("%d on one path but %s on another", lo, h)
}
