package uarch

// Functional warming for sampled simulation (DESIGN.md §16). A sampled
// window restarts a detailed core from an *architectural* checkpoint:
// registers and memory are exact, but caches, the direction predictor
// and the BTB would be cold, and the refill penalty dwarfs a short
// sample window (hundreds of percent of cycle inflation on the matrix
// workloads). WarmState is the SMARTS answer: the fast-forward pass
// keeps replica cache/predictor structures continuously warm at
// functional speed, snapshots them alongside each checkpoint, and the
// core adopts the replica state on Restart — leaving the short detailed
// warmup only the pipeline-local state (ROB, queues, RAS) to fill.
//
// Warm state is deliberately *not* part of the checkpoint's canonical
// serialization: for a fixed sampler version it is a deterministic
// function of the architectural position and the model configuration,
// both of which the window's content address already covers.

// WarmState is the microarchitectural replica the fast-forward pass
// trains: the cache hierarchy, the direction predictor (gshare models
// only), the BTB, and the return-address stack.
type WarmState struct {
	Hier *Hierarchy
	// Dir is nil when the model's predictor is not gshare (the TAGE
	// variant keeps speculative folded histories that have no cheap
	// functional replica; those models warm in the detailed phase).
	Dir *Gshare
	BTB *BTB
	// RAS mirrors the committed call stack: the cores' RASRecover repairs
	// the speculative RAS to exactly this state after every control
	// misprediction, so the architectural call/return trace is the
	// correct steady state to seed it with. Without it every restart
	// begins with an empty stack and each return that unwinds past the
	// restart point mispredicts — ruinous for call-heavy workloads.
	RAS *RAS

	// instLine is the L1I line of the last instruction Inst warmed, plus
	// one (0: none yet).
	instLine uint32

	cfg Config // construction config, for Clone
}

// NewWarmState builds the replica structures for a model config.
func NewWarmState(cfg Config) *WarmState {
	w := &WarmState{
		cfg:  cfg,
		Hier: NewHierarchy(cfg),
		BTB:  NewBTB(cfg.BTBEntries),
		RAS:  NewRAS(cfg.RASEntries),
	}
	if cfg.Predictor != PredTAGE {
		w.Dir = NewGshare(cfg.GshareHistBits, cfg.GshareEntries)
	}
	return w
}

// Clone snapshots the warm state into fresh structures.
func (w *WarmState) Clone() *WarmState {
	cp := NewWarmState(w.cfg)
	cp.CopyFrom(w)
	return cp
}

// CopyFrom overwrites w with src's replica state, reusing w's
// structures: the allocation-free snapshot the sampler takes at every
// checkpoint into a recycled WarmState (the original keeps training
// while windows restart from the snapshot). Geometries must match
// (both built from the same Config).
func (w *WarmState) CopyFrom(src *WarmState) {
	if (w.Dir == nil) != (src.Dir == nil) || (w.Hier.L3 == nil) != (src.Hier.L3 == nil) {
		panic("uarch: WarmState.CopyFrom geometry mismatch")
	}
	w.Hier.CopyStateFrom(src.Hier)
	w.instLine = src.instLine
	w.BTB.CopyFrom(src.BTB)
	w.RAS.CopyFrom(src.RAS)
	if w.Dir != nil {
		w.Dir.CopyFrom(src.Dir)
	}
}

// Inst warms the instruction side for a retired instruction at pc. An
// instruction in the same L1I line as the previous one is skipped: that
// line is resident and the most recently used of its set, and LRU
// compares stamps only within a set, so touching it again changes
// neither which lines are resident nor their order. Only the L1I's
// tick and hit count would move: the tick is just the base later stamps
// count up from, and CopyFrom does not copy hit counts.
//
//lint:hotpath
func (w *WarmState) Inst(pc uint32) {
	line := pc>>w.Hier.L1I.shift + 1
	if line == w.instLine {
		return
	}
	w.instLine = line
	w.Hier.WarmInst(pc)
}

// Data warms the data side for a load or store at addr.
//
//lint:hotpath
func (w *WarmState) Data(addr uint32) { w.Hier.WarmData(addr) }

// Branch trains the direction predictor with a resolved conditional
// branch. The BTB is deliberately untouched: the engine inserts BTB
// entries only for the ops its policy's UpdatesBTB selects (indirect
// jumps), and the replica must evict the direct-mapped BTB exactly as
// the detailed core would.
//
//lint:hotpath
func (w *WarmState) Branch(pc uint32, taken bool) {
	if w.Dir != nil {
		w.Dir.Train(pc, taken)
	}
}

// Indirect records an indirect control transfer in the BTB — call this
// for exactly the ops the policy's UpdatesBTB selects (JALR/JR on
// STRAIGHT, JALR on RISC-V).
//
//lint:hotpath
func (w *WarmState) Indirect(pc uint32, target uint32) { w.BTB.Insert(pc, target) }

// Call pushes a return address at a committed call instruction.
//
//lint:hotpath
func (w *WarmState) Call(ret uint32) { w.RAS.Push(ret) }

// Return pops the stack at a committed return instruction.
//
//lint:hotpath
func (w *WarmState) Return() { w.RAS.Pop() }

// ---- warm accessors on the replicated structures ----

// WarmInst touches the instruction path without timing: a miss fills
// every level on the path, exactly as a demand fetch would.
//
//lint:hotpath
func (h *Hierarchy) WarmInst(addr uint32) {
	if h.L1I.Lookup(addr) {
		return
	}
	h.beyondL1(addr)
	h.L1I.Fill(addr)
}

// WarmData touches the data path without timing, including the stream
// prefetcher (its fills shape which lines are resident).
//
//lint:hotpath
func (h *Hierarchy) WarmData(addr uint32) {
	if h.L1D.Lookup(addr) {
		return
	}
	h.beyondL1(addr)
	h.L1D.Fill(addr)
	if h.prefetch == nil {
		return
	}
	pf, n := h.prefetch.onMiss(addr)
	for i := 0; i < n; i++ {
		if !h.L1D.Probe(pf[i]) {
			h.L2.Fill(pf[i])
			h.L1D.Fill(pf[i])
		}
	}
}

// CopyStateFrom adopts src's line placement (tags, LRU) level by level.
// Stat counters, MSHR timing, and prefetcher stream state stay local:
// they are either per-run statistics or transient timing state that the
// detailed warmup refills. Geometries must match (same Config).
func (h *Hierarchy) CopyStateFrom(src *Hierarchy) {
	h.L1I.CopyFrom(src.L1I)
	h.L1D.CopyFrom(src.L1D)
	h.L2.CopyFrom(src.L2)
	if h.L3 != nil && src.L3 != nil {
		h.L3.CopyFrom(src.L3)
	}
}

// CopyFrom adopts src's tags and LRU state. Geometries must match.
func (c *Cache) CopyFrom(src *Cache) {
	if c.sets != src.sets || len(c.tags[0]) != len(src.tags[0]) {
		panic("uarch: Cache.CopyFrom geometry mismatch")
	}
	for s := range c.tags {
		copy(c.tags[s], src.tags[s])
		copy(c.lru[s], src.lru[s])
	}
	c.tick = src.tick
}

// Train performs a non-speculative gshare update: table training plus a
// history shift with the actual outcome — the steady state a detailed
// front end converges to, since misprediction recovery repairs its
// speculative history to the resolved outcome.
//
//lint:hotpath
func (g *Gshare) Train(pc uint32, taken bool) {
	g.Update(pc, taken, g.history)
	g.history = (g.history<<1 | b2u(taken)) & (1<<g.histBits - 1)
}

// CopyFrom adopts src's counter table and global history. Geometries
// must match.
func (g *Gshare) CopyFrom(src *Gshare) {
	if len(g.table) != len(src.table) || g.histBits != src.histBits {
		panic("uarch: Gshare.CopyFrom geometry mismatch")
	}
	copy(g.table, src.table)
	g.history = src.history
}

// CopyFrom adopts src's target entries. Geometries must match.
func (b *BTB) CopyFrom(src *BTB) {
	if len(b.entries) != len(src.entries) {
		panic("uarch: BTB.CopyFrom geometry mismatch")
	}
	copy(b.entries, src.entries)
}

// CopyFrom adopts src's stack contents. Capacities must match.
func (r *RAS) CopyFrom(src *RAS) {
	if r.size != src.size {
		panic("uarch: RAS.CopyFrom capacity mismatch")
	}
	r.stack = append(r.stack[:0], src.stack...)
}
