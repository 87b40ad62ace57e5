package straightbe

import (
	"fmt"
	"strings"

	"straight/internal/ir"
)

// fnEmitter compiles one IR function to STRAIGHT assembly.
type fnEmitter struct {
	f     *ir.Func
	opts  Options
	bound int

	lv     *ir.Liveness
	blocks []*ir.Block // layout order (reachable only)
	next   map[*ir.Block]*ir.Block

	vLINK *ir.Value // synthetic: the JAL link value
	vSP   *ir.Value // synthetic: the stack-frame anchor

	frames   map[*ir.Block][]*ir.Value
	frameIdx map[*ir.Block]map[*ir.Value]int

	slotBacked map[*ir.Value]bool
	slotOf     map[*ir.Value]int
	remat      map[*ir.Value]bool
	deferred   map[*ir.Value]bool
	foldAddr   map[*ir.Value]bool // Add(x, const) folded into load/store offsets
	allocaOff  map[*ir.Value]int

	frameSize int
	hasFrame  bool
	hasCalls  bool

	out         *strings.Builder // the assembly being written
	labelOf     map[*ir.Block]string
	pendingOut  []outOfLine // taken-edge sequences emitted at function end
	blockNeeded map[*ir.Block][]*ir.Value
	plans       map[*ir.Block]*blockPlan
}

type outOfLine struct {
	label  string
	ctx    *blockCtx
	pred   *ir.Block
	target *ir.Block
}

// blockCtx tracks dynamic positions during linear emission: pos counts
// instructions emitted since block entry; local maps values to their def
// position; frame values are addressed via the entry-frame contract.
type blockCtx struct {
	pos      int
	local    map[*ir.Value]int
	frame    map[*ir.Value]int // value -> frame index
	frameLen int
	gap      int // control-slot gap: 1 for normal blocks, 0 for entry
}

func (c *blockCtx) clone() *blockCtx {
	n := &blockCtx{pos: c.pos, frameLen: c.frameLen, gap: c.gap,
		local: make(map[*ir.Value]int, len(c.local)),
		frame: make(map[*ir.Value]int, len(c.frame))}
	for k, v := range c.local {
		n.local[k] = v
	}
	for k, v := range c.frame {
		n.frame[k] = v
	}
	return n
}

// resident reports whether v is currently addressable by distance.
func (c *blockCtx) resident(v *ir.Value) bool {
	if _, ok := c.local[v]; ok {
		return true
	}
	_, ok := c.frame[v]
	return ok
}

// dist returns the current operand distance of v.
func (c *blockCtx) dist(v *ir.Value) (int, error) {
	if p, ok := c.local[v]; ok {
		return c.pos - p, nil
	}
	if j, ok := c.frame[v]; ok {
		return c.pos + c.gap + (c.frameLen - j), nil
	}
	return 0, fmt.Errorf("value %s not resident", v.Name())
}

func newFnEmitter(f *ir.Func, opts Options) *fnEmitter {
	fe := &fnEmitter{
		f:          f,
		opts:       opts,
		bound:      opts.maxDist(),
		slotBacked: make(map[*ir.Value]bool),
		slotOf:     make(map[*ir.Value]int),
		remat:      make(map[*ir.Value]bool),
		deferred:   make(map[*ir.Value]bool),
		foldAddr:   make(map[*ir.Value]bool),
		allocaOff:  make(map[*ir.Value]int),
		frames:     make(map[*ir.Block][]*ir.Value),
		frameIdx:   make(map[*ir.Block]map[*ir.Value]int),
		labelOf:    make(map[*ir.Block]string),
		next:       make(map[*ir.Block]*ir.Block),
	}
	fe.vLINK = f.NewValue(ir.OpParam, ir.TypeI32) // synthetic, never inserted
	fe.vSP = f.NewValue(ir.OpParam, ir.TypePtr)
	return fe
}

// DebugDumpOnError, when set, prints the tail of the partially emitted
// assembly when a function fails to compile (test diagnostics).
var DebugDumpOnError = false

// DebugAnnotate, when set, interleaves IR provenance comments in the
// emitted assembly (test diagnostics; comments are stripped by sasm).
var DebugAnnotate = false

// emit writes the function's assembly to out. On error, out holds a
// partial function.
func (fe *fnEmitter) emit(out *strings.Builder) error {
	fe.analyze()
	fe.out = out
	out.WriteString(fe.f.Name)
	out.WriteString(":\n")
	start := out.Len()
	if err := fe.emitBlocks(); err != nil {
		if DebugDumpOnError {
			tail := strings.Split(strings.TrimSuffix(out.String()[start:], "\n"), "\n")
			if len(tail) > 80 {
				tail = tail[len(tail)-80:]
			}
			fmt.Printf("--- %s: emitted tail ---\n%s\n", fe.f.Name, strings.Join(tail, "\n"))
		}
		return err
	}
	return nil
}

func (fe *fnEmitter) line(format string, args ...any) {
	fmt.Fprintf(fe.out, format, args...)
	fe.out.WriteByte('\n')
}

// op emits one instruction line and advances the position counter.
func (fe *fnEmitter) op(c *blockCtx, format string, args ...any) {
	fe.out.WriteString("    ")
	fe.line(format, args...)
	c.pos++
}

// ---- Analysis ----

func (fe *fnEmitter) analyze() {
	fe.blocks = fe.f.RPO()
	for i, b := range fe.blocks {
		fe.labelOf[b] = fmt.Sprintf(".L%s_%d", fe.f.Name, i)
		if i+1 < len(fe.blocks) {
			fe.next[b] = fe.blocks[i+1]
		}
	}
	fe.lv = ir.ComputeLiveness(fe.f)

	// Call sites and rematerializable values.
	for _, b := range fe.blocks {
		for _, v := range b.Insns {
			if isRealCall(v) {
				fe.hasCalls = true
			}
			switch v.Op {
			case ir.OpConst:
				fe.remat[v] = true
			case ir.OpGlobalAddr, ir.OpAlloca:
				if fe.opts.RedundancyElim {
					fe.remat[v] = true
				}
			}
		}
	}

	// Values live across a call must relay through the stack frame.
	for _, b := range fe.blocks {
		live := make(map[*ir.Value]bool)
		for _, v := range fe.lv.Out(b) {
			live[v] = true
		}
		for i := len(b.Insns) - 1; i >= 0; i-- {
			v := b.Insns[i]
			delete(live, v)
			if isRealCall(v) {
				for w := range live {
					if !fe.remat[w] {
						fe.slotBacked[w] = true
					}
				}
			}
			if v.Op != ir.OpPhi {
				for _, a := range v.Args {
					if liveTracked(a) {
						live[a] = true
					}
				}
			}
		}
	}

	loops := ir.FindLoops(fe.f)

	// LINK relays through the frame when calls occur, and in RE+ mode
	// when a loop would otherwise RMOV it around every iteration
	// (Fig 10(c) stores _RETADDR for exactly that reason).
	if fe.hasCalls || (fe.opts.RedundancyElim && len(loops.Loops) > 0) {
		fe.slotBacked[fe.vLINK] = true
	}

	// RE+ stack relay: values live through a loop without any use inside
	// it are spilled rather than RMOV-relayed around every iteration.
	if fe.opts.RedundancyElim {
		for header, body := range loops.Loops {
			for _, v := range fe.lv.In(header) {
				if fe.remat[v] || fe.slotBacked[v] || v.Op == ir.OpPhi && v.Block == header {
					continue
				}
				if definedIn(v, body) || usedInLoop(v, body) {
					continue
				}
				fe.slotBacked[v] = true
			}
		}
	}

	// Address folding: Add(x, const) whose every use is a memory address
	// in the same block folds into load/store offsets.
	fe.analyzeAddrFold()

	// RE+ deferral: single-block producers whose only consumers are
	// frame slots sink into the produce sequence (Fig 10(b)).
	if fe.opts.RedundancyElim {
		fe.analyzeDeferred()
	}

	fe.buildFrames()
	fe.evictForPressure()
	fe.assignSlots()
}

// evictForPressure bounds each block's refresh set: values that must stay
// in the instruction window simultaneously (frame-carried live-ins plus
// window-only local defs). When a block needs more than the window can
// hold under the distance bound, the excess is relayed through the stack
// (distance bounding by spilling — the general form of §IV-C3).
func (fe *fnEmitter) evictForPressure() {
	cap := fe.frameCap()
	for round := 0; round < 128; round++ {
		evicted := false
		for _, b := range fe.blocks {
			peak, at := fe.peakPressure(b)
			if peak <= cap {
				continue
			}
			// Evict values live at the pressure peak, preferring the
			// ones that stay live longest (largest relay cost), until the
			// peak fits.
			excess := peak - cap
			pl := fe.planFor(b)
			// Sort candidates by descending lifetime length.
			for i := 0; i < len(at); i++ {
				for j := i + 1; j < len(at); j++ {
					if span(pl, at[j]) > span(pl, at[i]) {
						at[i], at[j] = at[j], at[i]
					}
				}
			}
			for _, v := range at {
				if excess == 0 {
					break
				}
				if v == fe.vSP || fe.remat[v] || fe.slotBacked[v] || v.Op == ir.OpPhi {
					continue
				}
				fe.slotBacked[v] = true
				fe.deferred[v] = false
				evicted = true
				excess--
			}
			// Phis live at the peak can be evicted too (they stay in the
			// frame but reload from their slot instead of refreshing).
			if excess > 0 {
				for _, v := range at {
					if excess == 0 {
						break
					}
					if v.Op == ir.OpPhi && !fe.slotBacked[v] {
						fe.slotBacked[v] = true
						evicted = true
						excess--
					}
				}
			}
		}
		if !evicted {
			return
		}
		fe.blockNeeded = nil
		fe.plans = nil
		fe.buildFrames()
	}
}

// span returns the eviction-priority length of a value's live range.
func span(pl *blockPlan, v *ir.Value) int {
	end := pl.lastUse[v]
	start := 0
	if d, ok := pl.defIdx[v]; ok {
		start = d
	}
	return end - start
}

func isRealCall(v *ir.Value) bool {
	if v.Op != ir.OpCall {
		return false
	}
	switch v.Sym {
	case "__putc", "__puti", "__putu", "__putx", "__exit", "__cycles":
		return false
	}
	return true
}

// liveTracked mirrors liveness's producesValue for arg tracking.
func liveTracked(v *ir.Value) bool {
	switch v.Op {
	case ir.OpStore, ir.OpRet, ir.OpBr, ir.OpCondBr:
		return false
	case ir.OpCall:
		return v.Type != ir.TypeVoid
	}
	return true
}

func definedIn(v *ir.Value, body map[*ir.Block]bool) bool {
	return v.Block != nil && body[v.Block]
}

func usedInLoop(v *ir.Value, body map[*ir.Block]bool) bool {
	for b := range body {
		for _, w := range b.Insns {
			if w.Op == ir.OpPhi {
				for i, a := range w.Args {
					if a == v && body[w.Block.Preds[i]] {
						return true
					}
				}
				continue
			}
			for _, a := range w.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}

func (fe *fnEmitter) analyzeAddrFold() {
	uses := make(map[*ir.Value][]*ir.Value)
	for _, b := range fe.blocks {
		for _, v := range b.Insns {
			for _, a := range v.Args {
				uses[a] = append(uses[a], v)
			}
		}
	}
	for _, b := range fe.blocks {
		for _, v := range b.Insns {
			if v.Op != ir.OpBin || ir.BinKind(v.Aux) != ir.BinAdd {
				continue
			}
			if v.Args[1].Op != ir.OpConst {
				continue
			}
			c := v.Args[1].Const
			ok := len(uses[v]) > 0
			for _, u := range uses[v] {
				if u.Block != v.Block {
					ok = false
					break
				}
				switch {
				case u.Op == ir.OpLoad && u.Args[0] == v && u.Args[1%len(u.Args)] != v:
					if c < -4096 || c > 4095 {
						ok = false
					}
				case u.Op == ir.OpStore && u.Args[0] == v && u.Args[1] != v:
					if c < -8 || c > 7 {
						ok = false
					}
				default:
					ok = false
				}
			}
			if ok && !fe.slotBacked[v] {
				fe.foldAddr[v] = true
			}
		}
	}
}

func (fe *fnEmitter) analyzeDeferred() {
	// Count non-frame uses: any instruction argument (including phi args
	// from other blocks' edges handled below) disqualifies deferral
	// except phi args flowing from the defining block's own edges.
	type useInfo struct {
		inInsn  bool
		inOther bool
	}
	info := make(map[*ir.Value]*useInfo)
	get := func(v *ir.Value) *useInfo {
		u := info[v]
		if u == nil {
			u = &useInfo{}
			info[v] = u
		}
		return u
	}
	for _, b := range fe.blocks {
		for _, v := range b.Insns {
			if v.Op == ir.OpPhi {
				for i, a := range v.Args {
					if b.Preds[i] != a.Block {
						get(a).inOther = true
					}
				}
				continue
			}
			for _, a := range v.Args {
				get(a).inInsn = true
			}
		}
	}
	for _, b := range fe.blocks {
		for _, v := range b.Insns {
			if !fe.deferrable(v) {
				continue
			}
			u := info[v]
			if u != nil && (u.inInsn || u.inOther) {
				continue
			}
			// Used only through frames / same-block phi edges: live-out
			// of its own block but not consumed by an instruction in it.
			if fe.lv.LiveOut(b, v) || u != nil {
				fe.deferred[v] = true
			}
		}
	}
}

// deferrable reports whether v can be produced by a single instruction
// with operands that are ordinary resident values.
func (fe *fnEmitter) deferrable(v *ir.Value) bool {
	if fe.slotBacked[v] || fe.foldAddr[v] {
		return false
	}
	switch v.Op {
	case ir.OpBin:
		if v.Args[1].Op == ir.OpConst && immFits(binImmMnemonic(ir.BinKind(v.Aux)), v.Args[1].Const) {
			return true
		}
		return true // register-register form is also one instruction
	case ir.OpCmp:
		k := ir.CmpKind(v.Aux)
		return k == ir.CmpLt || k == ir.CmpULt // SLT/SLTU are single ops
	case ir.OpConst:
		return false // remat'd anyway
	}
	return false
}

// frameCap bounds a block's frame size (and, via evictForPressure, the
// number of values the refresh machinery keeps in the window). The
// invariant chain is: after a refresh pass all kept values sit at
// distance <= k (a full relay burst leaves them at 1..k); one IR
// instruction expands to at most M=12 machine instructions; and during
// the next burst the deepest value may drift another k slots before its
// relay. So 2k + M <= bound, i.e. k <= (bound-12)/2 (minus one for
// slack).
func (fe *fnEmitter) frameCap() int {
	k := (fe.bound - 14) / 2
	if k < 4 {
		k = 4
	}
	return k
}

// buildFrames assigns each block its ordered entry frame, evicting values
// to the stack when a frame cannot fit within the distance bound.
func (fe *fnEmitter) buildFrames() {
	for {
		overflow := false
		for _, b := range fe.blocks {
			if b == fe.f.Entry() {
				continue
			}
			members := make(map[*ir.Value]bool)
			for _, phi := range b.Phis() {
				members[phi] = true
			}
			for _, v := range fe.lv.In(b) {
				if fe.remat[v] || fe.slotBacked[v] || fe.foldAddr[v] {
					continue
				}
				members[v] = true
			}
			if !fe.slotBacked[fe.vLINK] {
				members[fe.vLINK] = true
			}
			if fe.hasFrameNeed() && !fe.opts.RedundancyElim {
				members[fe.vSP] = true
			}
			frame := sortedByID(members)
			if len(frame) > fe.frameCap() {
				// Evict non-phi SSA values to the stack and retry.
				for _, v := range frame {
					if v.Op == ir.OpPhi || v == fe.vLINK || v == fe.vSP {
						continue
					}
					fe.slotBacked[v] = true
					overflow = true
					if len(frame)-countSlotBacked(frame, fe.slotBacked) <= fe.frameCap() {
						break
					}
				}
			}
			fe.frames[b] = frame
			idx := make(map[*ir.Value]int, len(frame))
			for j, v := range frame {
				idx[v] = j
			}
			fe.frameIdx[b] = idx
		}
		if !overflow {
			return
		}
	}
}

func countSlotBacked(frame []*ir.Value, sb map[*ir.Value]bool) int {
	n := 0
	for _, v := range frame {
		if sb[v] {
			n++
		}
	}
	return n
}

// hasFrameNeed reports whether the function will allocate a stack frame
// (allocas, spill slots, or calls).
func (fe *fnEmitter) hasFrameNeed() bool {
	if fe.hasCalls || len(fe.slotBacked) > 0 {
		return true
	}
	for _, v := range fe.f.Entry().Insns {
		if v.Op == ir.OpAlloca {
			return true
		}
	}
	return false
}

func (fe *fnEmitter) assignSlots() {
	off := 0
	for _, b := range fe.blocks {
		for _, v := range b.Insns {
			if v.Op == ir.OpAlloca {
				fe.allocaOff[v] = off
				off += alignUp4(v.Aux)
			}
		}
	}
	for _, v := range sortedByID(fe.slotBacked) {
		fe.slotOf[v] = off
		off += 4
	}
	fe.frameSize = alignUp4(off)
	fe.hasFrame = fe.frameSize > 0 || fe.hasCalls
}

func alignUp4(n int) int { return (n + 3) &^ 3 }
