// Package engine is the shared cycle-level simulation kernel behind
// every core (DESIGN.md §15). It owns the machinery the STRAIGHT paper's
// comparison keeps identical across machines — fetch pipe, wakeup
// scheduler, issue, LSQ integration, ROB commit, idle-cycle skipping,
// arena recycling, batch Reset — and delegates the points where the
// microarchitectures genuinely differ (operand resolution at dispatch,
// recovery bookkeeping, retirement reclamation, serialized-instruction
// commit) to a per-core Policy implementation.
//
// The extraction contract is bit-identity: a policy core produces the
// same uarch.Stats, Kanata trace bytes, retirement stream, output,
// exit code, and error cycles as the pre-extraction monolithic core it
// replaced, proven by internal/perf's golden corpus and the
// cross-engine differential matrix in internal/cores/coretest.
package engine

import (
	"fmt"
	"io"
	"sync/atomic"

	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
)

// Inst constrains the decoded-instruction payload a policy threads
// through the engine. The engine itself only ever renders it (tracer)
// and hands it back to policy hooks.
type Inst interface {
	String() string
}

// InstInfo caches the per-instruction facts the engine's shared ladders
// consult, computed once at decode so the hot dispatch/commit/quiesce
// paths never call back into the policy to re-classify.
type InstInfo struct {
	Class     uarch.Class
	IsControl bool
	// Serialize marks instructions that execute at commit with the ROB
	// otherwise empty (STRAIGHT SYS, RISC-V ECALL).
	Serialize bool
	// SPAdd marks stack-pointer adders subject to Config.SPAddPerGroup
	// (STRAIGHT only; rename-based policies never set it).
	SPAdd bool
}

// Options control a simulation run.
type Options struct {
	MaxInsns      uint64
	MaxCycles     int64
	CrossValidate bool
	Output        io.Writer
	// Tracer receives per-instruction pipeline events (nil = tracing
	// off; every hook site is guarded by a nil check).
	Tracer *ptrace.Tracer
	// RetireFn observes every retirement in program order; a non-nil
	// error aborts the run (used by the lockstep fuzzing oracle).
	RetireFn uarch.RetireFn
	// InjectBug enables a deliberate microarchitectural defect for
	// mutation-testing the differential harness (see DESIGN.md §10).
	// Known values are policy-specific constants such as
	// straightcore.BugMulReadyEarly and engine.BugFreeListEarlyReclaim.
	InjectBug string
	// NoIdleSkip disables the event-driven idle-cycle fast path
	// (DESIGN.md §12) and forces per-cycle stepping. The zero value —
	// skipping on — is bit-identical in every observable (Stats, traces,
	// output, retire stream); the switch exists for differential testing
	// and for measuring the fast path's own speedup.
	NoIdleSkip bool
	// Interrupt, when non-nil, is polled once per advance (per stepped
	// cycle or skipped span); reading true aborts the run with
	// uarch.ErrInterrupted. Signal handlers set it to cancel in-flight
	// sweep points (DESIGN.md §14).
	Interrupt *atomic.Bool
}

// BugFreeListEarlyReclaim is the InjectBug value for the documented
// rename defect: the previous physical mapping of a renamed destination
// is returned to the free list at rename time instead of at retirement,
// so a later rename can recycle a physical register that in-flight
// consumers still read. Only rename-based policies honor it.
const BugFreeListEarlyReclaim = "freelist-early-reclaim"

// Result summarizes a run.
type Result struct {
	Stats    uarch.Stats
	ExitCode int32
	Output   string
}

// FEEntry is a decoded instruction in the fetch-to-dispatch pipe.
type FEEntry[I Inst] struct {
	PC        uint32
	Inst      I
	Info      InstInfo
	FetchedAt int64
	Tid       ptrace.ID // trace id (0 = untraced)

	IsBranch   bool
	PredTaken  bool
	PredTarget uint32
	PredMeta   uint64
	RASSnap    []uint32
}

// decoded is one predecoded text word: what Policy.Decode returned for
// it, ok=false marking a word that does not decode.
type decoded[I Inst] struct {
	inst I
	info InstInfo
	ok   bool
}

// Uop is an in-flight µop: the shared backend state plus the decoded
// instruction and the policy payload fields. µops are recycled through a
// per-core arena, so the steady-state step path never heap-allocates
// one. The payload fields are a union across policies — distance cores
// use SPAfter/SPRes, rename cores OldDest/LogDest, block cores
// GatePrev/GateSeq — which wastes a few bytes per slot but keeps the
// arena, the wakeup scheduler, and the recovery walks monomorphic.
type Uop[I Inst] struct {
	uarch.UOp

	Inst      I
	Tid       ptrace.ID
	IsBranch  bool
	Serialize bool
	LSQE      *uarch.LSQEntry

	// STRAIGHT payload: in-order SP tracking for single-entry recovery.
	SPAfter uint32 // SP after this instruction's decode (recovery state)
	SPRes   uint32 // SPADD: precomputed result

	// Rename payload: RMT undo state for the recovery walk and the
	// retirement-time free-list reclaim.
	OldDest int32 // previous physical mapping of rd (for walk/free)
	LogDest int8  // logical rd (-1 none)

	// Coarse-grain payload: the previous µop of the same block. The entry
	// may not issue until its predecessor has issued (in-order within a
	// block); GateSeq tags the link so a recycled predecessor slot reads
	// as already-issued rather than chaining to an unrelated µop.
	GatePrev *Uop[I]
	GateSeq  uint64

	// Wakeup-scheduler state: Pending counts sources whose producers had
	// not executed at dispatch; ReadyTime is the max ready cycle of the
	// sources observed so far. When Pending reaches zero the entry moves
	// to the awake list and only then is scanned by issue.
	Pending   int8
	InIQ      bool
	ReadyTime int64
}

// waitNode is one entry of a physical register's waiter list: a
// scheduler entry still waiting on that register's producer. Nodes live
// in the core's one waiter pool and link by pool index; -1 ends a list.
type waitNode[I Inst] struct {
	u          *Uop[I]
	prev, next int32
}

// waitList is a physical register's waiter list: the first and last
// node in append (= Seq) order, -1 when empty.
type waitList struct{ head, tail int32 }

// FarFuture is the prfReady sentinel for an in-flight (not yet
// executed) producer; policies write it when allocating a destination.
const FarFuture = int64(1) << 62

// Recovery is a pending pipeline flush, applied at end of cycle
// (oldest wins).
type Recovery[I Inst] struct {
	U        *Uop[I]
	TargetPC uint32
	// IsMemViolation refetches the violating load itself.
	IsMemViolation bool
}

// Policy is what a core contributes on top of the shared engine: ISA
// decode and execution semantics, operand resolution (distance
// arithmetic or rename), recovery-walk bookkeeping, retirement
// reclamation, and the serialized-commit path. Every hook receives the
// engine core; policies keep their own private state (RMT, free list,
// register pointer, golden emulators) in the policy struct.
//
// Hot-path budget: the engine makes at most a handful of Policy calls
// per retired instruction (Rename, Execute, CommitRetire, OnRetire,
// plus PredictControl/UpdatesBTB for control ops), which the KIPS
// regression guard in scripts/bench.sh holds to the monolithic cores'
// throughput. Decode is not among them: it runs once per text word
// when the core predecodes an image, and fetch looks the result up.
//
//lint:hotpath
type Policy[I Inst] interface {
	// Name prefixes error messages ("straightcore", "sscore", ...).
	Name() string
	// AdjustConfig fills policy-specific config defaults before any
	// structure is sized (e.g. STRAIGHT's MaxDistance).
	AdjustConfig(cfg *uarch.Config)
	// RegCount is the physical register file size (and hence prfReady
	// and waiter-table size) for this policy under cfg.
	RegCount(cfg *uarch.Config) int
	// Init creates the policy's golden emulator (writing output to out)
	// and fetch oracle (when c.UseOracle) and sets the initial
	// architectural register state.
	Init(c *Core[I], img *program.Image, out io.Writer)
	// Reset restores policy state for batch reuse (Core.Reset contract).
	Reset(c *Core[I], img *program.Image)
	// Restore seeds the policy's architectural state — golden emulator,
	// rename bookkeeping, committed register values — from a mid-program
	// checkpoint. Core.Restart is the only caller; it runs Reset first,
	// so Restore starts from a clean power-on core and only has to layer
	// the checkpointed state on top (DESIGN.md §16).
	Restore(c *Core[I], ck ArchState) error

	// Decode decodes one instruction word; ok=false halts fetch at that
	// word until the next redirect (wrong-path garbage). It must depend
	// on raw alone: the core calls it once per text word of an image.
	Decode(raw uint32) (inst I, info InstInfo, ok bool)
	// PredictControl produces the front end's next-PC guess for a
	// control instruction and maintains the RAS.
	PredictControl(c *Core[I], pc uint32, inst I, e *FEEntry[I]) (taken bool, target uint32)
	// OracleStep/OraclePC advance the lockstep fetch oracle (only called
	// when c.UseOracle).
	OracleStep()
	OraclePC() uint32
	// ResyncOracle rebuilds the fetch oracle at a recovery redirect.
	ResyncOracle(c *Core[I])

	// Rename resolves the µop's operands (dest/sources) at dispatch. A
	// false return means rename is blocked this cycle (the policy has
	// already charged the stall); the engine recycles the µop shell and
	// leaves the fetch entry queued.
	Rename(c *Core[I], u *Uop[I]) bool
	// Execute computes the µop's result and schedules its completion,
	// returning false when it cannot proceed yet (load waiting on a
	// store).
	Execute(c *Core[I], u *Uop[I]) bool
	// UpdatesBTB reports whether a resolved control instruction inserts
	// its target into the BTB.
	UpdatesBTB(inst I) bool

	// RecoveryWalk undoes the speculative rename state of the squashed
	// ROB tail (everything younger than boundary), using c.SquashTail to
	// drop entries, and returns the number of entries walked (0 for
	// single-entry recovery).
	RecoveryWalk(c *Core[I], r *Recovery[I], boundary uint64) (walked int64)
	// RecoveryPenalty charges the rename-unavailability cost of the
	// recovery just applied (not called under ZeroMispredictPenalty).
	RecoveryPenalty(c *Core[I], walked int64)
	// RASRecover replays the recovery-point instruction's own RAS effect
	// after the snapshot restore.
	RASRecover(c *Core[I], u *Uop[I])

	// CommitSerialize retires a Serialize µop via the golden emulator,
	// propagating output, exit state, and the architectural result.
	CommitSerialize(c *Core[I], u *Uop[I]) error
	// CommitRetire steps the golden emulator past a normal retirement,
	// cross-validating the architectural result when xval is set.
	CommitRetire(c *Core[I], u *Uop[I], xval bool) error
	// OnRetire performs retirement-time reclamation (free list) and, when
	// r is non-nil, fills the value/register fields of the retirement
	// record handed to Options.RetireFn.
	OnRetire(c *Core[I], u *Uop[I], r *uarch.Retirement)

	// DispatchIdleTail extends the idle-skip dispatch ladder with the
	// policy's own rename-blocked classification (free-list exhaustion).
	// blocked=true classifies the cycle as a StallFreeList stall that
	// burns a sequence number and renameReads RMT reads per cycle.
	DispatchIdleTail(c *Core[I], inst I) (renameReads uint64, blocked bool)
	// DeadlockDump renders policy state for deadlock diagnostics.
	DeadlockDump(c *Core[I]) string
}

// Core is the shared cycle simulator, parameterized by the decoded
// instruction type and steered by a Policy. Exported fields are the
// engine state policies read and (where documented) write; everything
// else is engine-private.
type Core[I Inst] struct {
	pol Policy[I]

	Cfg  uarch.Config //lint:resetless configuration, fixed at construction
	img  *program.Image
	mem  *program.Memory
	hier *uarch.Hierarchy
	Pred uarch.DirPredictor
	BTB  *uarch.BTB
	RAS  *uarch.RAS
	mdp  *uarch.MemDepPredictor
	LSQ  *uarch.LSQ

	Stat  uarch.Stats
	Cycle int64
	seq   uint64
	tr    *ptrace.Tracer //lint:resetless attachment, survives batch reuse

	FetchPC         uint32
	FetchStallUntil int64
	feQueue         *uarch.Ring[FEEntry[I]]
	feCap           int //lint:resetless capacity, derived from cfg at construction
	FetchHalted     bool

	// dec holds Policy.Decode of every word of img.Text, indexed by
	// word, so fetch looks instructions up instead of decoding them.
	dec []decoded[I] //lint:resetless predecoded text, keyed to img; Reset rebuilds it on image change

	// UseOracle selects the oracle front end (ZeroMispredictPenalty /
	// PredOracle): the policy's functional emulator is stepped at fetch
	// to follow the true path.
	UseOracle bool //lint:resetless configuration, fixed at construction

	RenameBlock int64
	Serializing bool

	ROB       *uarch.Ring[*Uop[I]]
	IQAwake   []*Uop[I]     // scheduler entries with all producers executed, Seq-sorted
	IQCount   int           // total scheduler occupancy (awake + waiting)
	waitLists []waitList    // per physical register
	waitPool  []waitNode[I] // 2×SchedulerSize nodes shared by every list
	waitFree  int32         // first free pool node, linked through next; -1 = none
	woken     []*Uop[I]     // entries woken this cycle, merged into IQAwake after the scan
	Executing []*Uop[I]
	PRF       []uint32
	PRFReady  []int64 // cycle value becomes available; FarFuture = pending
	divBusy   int64

	recov      Recovery[I]
	recovValid bool

	// µop arena and RAS-snapshot pool (see freeUop).
	arena    []*Uop[I]
	dead     []*Uop[I] // squashed µops collected during recovery, freed at its end
	snapPool [][]uint32

	Exited   bool
	ExitCode int32

	retireFn  uarch.RetireFn //lint:resetless attachment, survives batch reuse
	InjectBug string         //lint:resetless test configuration, survives batch reuse

	// ret is the scratch retirement record finishRetire hands to the
	// policy, kept on the core so the pointer never escapes to the heap.
	ret uarch.Retirement

	// Idle-skip state (quiesce.go): lastSig gates skip attempts on the
	// activity signature of the previous step; skip holds telemetry.
	noIdleSkip bool //lint:resetless configuration, survives batch reuse
	lastSig    uint64
	skip       uarch.SkipStats

	name   string //lint:resetless policy name, fixed at construction
	outBuf *captureWriter
}

type captureWriter struct {
	w   io.Writer
	buf []byte
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	if c.w != nil {
		return c.w.Write(p)
	}
	return len(p), nil
}

// New builds a core for the image, steered by pol.
func New[I Inst](pol Policy[I], cfg uarch.Config, img *program.Image, opts Options) *Core[I] {
	pol.AdjustConfig(&cfg)
	c := &Core[I]{
		pol:     pol,
		Cfg:     cfg,
		img:     img,
		mem:     program.NewMemory(),
		hier:    uarch.NewHierarchy(cfg),
		BTB:     uarch.NewBTB(cfg.BTBEntries),
		RAS:     uarch.NewRAS(cfg.RASEntries),
		mdp:     uarch.NewMemDepPredictor(4096),
		LSQ:     uarch.NewLSQ(cfg.LQSize, cfg.SQSize),
		FetchPC: img.Entry,
		feCap:   cfg.FetchWidth * (cfg.FrontEndLatency + 4),
		outBuf:  &captureWriter{w: opts.Output},
		tr:      opts.Tracer,
		lastSig: ^uint64(0), // never matches the first real signature
		name:    pol.Name(),
	}
	switch cfg.Predictor {
	case uarch.PredTAGE:
		c.Pred = uarch.NewTAGE()
	default:
		c.Pred = uarch.NewGshare(cfg.GshareHistBits, cfg.GshareEntries)
	}
	c.mem.LoadImage(img)
	n := pol.RegCount(&cfg)
	c.PRF = make([]uint32, n)
	c.PRFReady = make([]int64, n)
	// Every waiting source of every scheduler entry holds one pool node,
	// and a squash returns its entry's nodes at once, so 2×SchedulerSize
	// nodes cover any run without growth (see park).
	c.waitLists = make([]waitList, n)
	c.waitPool = make([]waitNode[I], 2*cfg.SchedulerSize)
	c.resetWaiters()

	c.feQueue = uarch.NewRing[FEEntry[I]](c.feCap)
	c.ROB = uarch.NewRing[*Uop[I]](cfg.ROBSize)
	c.IQAwake = make([]*Uop[I], 0, cfg.SchedulerSize)
	c.woken = make([]*Uop[I], 0, cfg.SchedulerSize)
	c.Executing = make([]*Uop[I], 0, cfg.ROBSize)
	c.dead = make([]*Uop[I], 0, cfg.ROBSize)
	c.arena = make([]*Uop[I], 0, cfg.ROBSize+8)
	block := make([]Uop[I], cfg.ROBSize+8)
	for i := range block {
		c.arena = append(c.arena, &block[i])
	}

	c.UseOracle = cfg.ZeroMispredictPenalty || cfg.Predictor == uarch.PredOracle
	c.predecode()
	pol.Init(c, img, c.outBuf)
	return c
}

// predecode fills dec for the current image, reusing its backing array
// when the image fits.
func (c *Core[I]) predecode() {
	text := c.img.Text
	if cap(c.dec) < len(text) {
		c.dec = make([]decoded[I], len(text))
	}
	c.dec = c.dec[:len(text)]
	for i, w := range text {
		d := &c.dec[i]
		d.inst, d.info, d.ok = c.pol.Decode(w)
	}
}

// allocUop takes a recycled µop from the arena (growing it only if the
// simulation exceeds every previous in-flight high-water mark).
func (c *Core[I]) allocUop() *Uop[I] {
	if n := len(c.arena); n > 0 {
		u := c.arena[n-1]
		c.arena = c.arena[:n-1]
		return u
	}
	block := make([]Uop[I], 32) //lint:alloc arena refill past the in-flight high-water mark, amortized
	for i := 1; i < len(block); i++ {
		c.arena = append(c.arena, &block[i])
	}
	return &block[0]
}

// freeUop recycles a µop after its last use (retire, or end of
// recovery). No waiter node points at it by then: Wake and SquashTail
// return an entry's nodes before it leaves the scheduler.
func (c *Core[I]) freeUop(u *Uop[I]) {
	if u.RASSnap != nil {
		c.snapPut(u.RASSnap)
	}
	*u = Uop[I]{}
	c.arena = append(c.arena, u)
}

func (c *Core[I]) snapGet() []uint32 {
	if n := len(c.snapPool); n > 0 {
		s := c.snapPool[n-1]
		c.snapPool = c.snapPool[:n-1]
		return s
	}
	return make([]uint32, 0, c.Cfg.RASEntries) //lint:alloc snapshot pool growth, amortized across recoveries
}

func (c *Core[I]) snapPut(s []uint32) { c.snapPool = append(c.snapPool, s[:0]) }

// Mem exposes the simulated memory (for post-run equivalence checks).
func (c *Core[I]) Mem() *program.Memory { return c.mem }

// Run simulates until program exit or a bound is hit.
func (c *Core[I]) Run(opts Options) (*Result, error) {
	c.retireFn = opts.RetireFn
	c.InjectBug = opts.InjectBug
	c.noIdleSkip = opts.NoIdleSkip
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = FarFuture
	}
	lastRetired := uint64(0)
	lastProgress := int64(0)
	for !c.Exited {
		if opts.Interrupt != nil && opts.Interrupt.Load() {
			return nil, uarch.ErrInterrupted
		}
		if c.Cycle >= maxCycles {
			return nil, fmt.Errorf("%s: cycle limit %d reached (retired %d)", c.name, maxCycles, c.Stat.Retired)
		}
		if c.Stat.Retired != lastRetired {
			lastRetired = c.Stat.Retired
			lastProgress = c.Cycle
		} else if c.Cycle-lastProgress > 500_000 {
			return nil, fmt.Errorf("%s: deadlock at cycle %d (retired %d)\n%s", c.name, c.Cycle, c.Stat.Retired, c.pol.DeadlockDump(c))
		}
		if opts.MaxInsns > 0 && c.Stat.Retired >= opts.MaxInsns {
			break
		}
		// Clamp any skip window so both bound checks above observe the
		// exact cycle numbers per-cycle stepping would have shown them.
		limit := maxCycles - c.Cycle
		if d := lastProgress + 500_001 - c.Cycle; d < limit {
			limit = d
		}
		if _, err := c.advance(&opts, limit); err != nil {
			return nil, err
		}
	}
	return &Result{Stats: c.Stat, ExitCode: c.ExitCode, Output: string(c.outBuf.buf)}, nil
}

// RunCycles advances the simulation by at most n cycles, stopping early
// on program exit or a simulation error. It gives benchmarks and the
// steady-state allocation tests cycle-granular control that Run (which
// adds bound and deadlock checks around the whole run) does not expose.
// HasExited reports whether the program has finished.
func (c *Core[I]) RunCycles(opts Options, n int64) error {
	c.retireFn = opts.RetireFn
	c.InjectBug = opts.InjectBug
	c.noIdleSkip = opts.NoIdleSkip
	for done := int64(0); done < n && !c.Exited; {
		k, err := c.advance(&opts, n-done)
		if err != nil {
			return err
		}
		done += k
	}
	return nil
}

// HasExited reports whether the simulated program has exited.
func (c *Core[I]) HasExited() bool { return c.Exited }

// Stats returns a copy of the counters accumulated so far.
func (c *Core[I]) Stats() uarch.Stats { return c.Stat }

// step advances one cycle: commit, execute-complete, issue, dispatch,
// fetch, then recovery resolution (order chosen so same-cycle hand-offs
// behave like a real pipeline with forwarding).
func (c *Core[I]) step(opts *Options) error {
	if c.tr != nil {
		c.tr.BeginCycle(c.Cycle)
	}
	if err := c.commit(opts); err != nil {
		return err
	}
	c.completeExecution()
	c.issue()
	if err := c.dispatch(); err != nil {
		return err
	}
	c.fetch()
	c.applyRecovery()
	c.Stat.Cycles++
	c.Stat.ROBOccupancy += int64(c.ROB.Len())
	c.Stat.IQOccupancy += int64(c.IQCount)
	if c.tr != nil {
		lq, sq := c.LSQ.Occupancy()
		c.tr.Sample(c.ROB.Len(), c.IQCount, lq, sq)
	}
	c.Cycle++
	return nil
}

func (c *Core[I]) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// FEQueueLen reports the fetch-to-dispatch pipe occupancy (diagnostics).
func (c *Core[I]) FEQueueLen() int { return c.feQueue.Len() }

// Tr exposes the attached tracer (nil when tracing is off) to policy
// hooks that emit their own events, e.g. the recovery-penalty stall.
//
//lint:hotpath
func (c *Core[I]) Tr() *ptrace.Tracer { return c.tr }
