// Package sampling implements SimPoint/SMARTS-style sampled simulation
// (DESIGN.md §16): a functional emulator fast-forwards the workload,
// taking a serializable architectural checkpoint at every interval
// boundary; a detailed cycle core is seeded from each checkpoint via the
// engine's restore-into-core path (engine.Core.Restart), warmed up for W
// instructions with statistics discarded, and then measured for an
// S-instruction sample window. Whole-program IPC/CPI and stall shares
// are reconstructed from the equal-weighted window measurements with
// per-metric confidence intervals. Windows fan out across a bounded
// worker pool with one reusable core per worker, and each window result
// is content-addressed in the result store by checkpoint hash + core
// configuration + plan, so re-sweeps only re-simulate dirty windows.
package sampling

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"straight/internal/cores"
	"straight/internal/cores/engine"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/isa/riscv"
	"straight/internal/isa/straight"
	"straight/internal/program"
	"straight/internal/resultstore"
	"straight/internal/uarch"
)

// Plan is the interval plan: where checkpoints are taken and how much of
// each interval is warmed and measured. The plan is part of the window
// cache key, and together with the target it fully determines the
// report — sampling has no other randomness, so equal plans produce
// byte-identical report fingerprints (Report.Fingerprint).
type Plan struct {
	// Interval is the distance in retired instructions between
	// checkpoints (and hence between window starts).
	Interval uint64 `json:"interval"`
	// Warmup is the number of instructions simulated in detail before
	// each measurement to charge cold caches, predictors, and the
	// pipeline fill; its statistics are discarded (SMARTS warming).
	Warmup uint64 `json:"warmup"`
	// Window is the number of instructions measured per sample.
	Window uint64 `json:"window"`
	// Offset shifts the first checkpoint away from instruction 0 — the
	// SMARTS phase-offset "seed". Windows then start at Offset + k*Interval.
	Offset uint64 `json:"offset,omitempty"`
	// WarmMem bounds functional warming (uarch.WarmState): only the last
	// WarmMem retired instructions before each checkpoint train the
	// replica cache/predictor state at fast-forward time. 0 (or any value
	// ≥ Interval) warms continuously — most accurate, but the tracer tax
	// is paid on every fast-forwarded instruction. Warm state accumulates
	// across bursts (it is never reset), so bounded warming only ages
	// lines between bursts rather than dropping them.
	WarmMem uint64 `json:"warm_mem,omitempty"`
}

// DefaultPlan measures ~1.6% of the program: a 128k detailed warmup and
// a 16k measured window every 1M instructions, with functional warming
// over the last quarter of each interval. The warmup is deep because
// detailed warmup depth — not functional warming — is what decays the
// restart bias on the 4-wide configs (DESIGN.md §16.4); 128k holds the
// sampled-vs-full IPC gap to a few percent on every kernel, at a cold
// speedup of ~4-6× over full detailed simulation. Repeat runs against a
// result store skip the fast-forward entirely (the checkpoint sequence
// is content-addressed too) and reduce to hashing — the ~100× regime.
// Dial Warmup down (e.g. 32768) to trade accuracy for cold speed.
func DefaultPlan() Plan {
	return Plan{Interval: 1_000_000, Warmup: 131_072, Window: 16_384, WarmMem: 250_000}
}

// Validate rejects degenerate plans. Window must fit inside the
// interval so no instruction is measured twice (measured spans start
// Interval apart). Warmup is free to overlap the previous window's
// measured span: with Window == Interval the measured spans tile the
// program gaplessly and each warmup replays the tail of the span before
// it — the dense-plan shape the accuracy tests use on small workloads.
func (p Plan) Validate() error {
	if p.Window == 0 {
		return fmt.Errorf("sampling: plan window is zero")
	}
	if p.Interval == 0 {
		return fmt.Errorf("sampling: plan interval is zero")
	}
	if p.Window > p.Interval {
		return fmt.Errorf("sampling: window %d exceeds interval %d (instructions would be measured twice)",
			p.Window, p.Interval)
	}
	return nil
}

// checkpoint is what the fast-forward machine hands the window runner:
// a restartable architectural snapshot that also serializes canonically
// (the serialization is the content-address of the window).
type checkpoint interface {
	engine.ArchState
	MarshalBinary() ([]byte, error)
}

// ffMachine is the fast-forward surface of the two functional emulators.
type ffMachine interface {
	RunUntil(target uint64) error
	InstCount() uint64
	Exited() (bool, int32)
	SetOutput(w io.Writer)
	TakeCheckpoint() checkpoint
	// SetWarm arms (or, with nil, disarms) functional warming: every
	// retired instruction trains w's replica caches, direction predictor
	// and BTB via the emulator's retire trace hook.
	SetWarm(w *uarch.WarmState)
}

type straightFF struct{ *straightemu.Machine }

func (f straightFF) TakeCheckpoint() checkpoint { return f.Checkpoint() }

func (f straightFF) SetWarm(w *uarch.WarmState) {
	if w == nil {
		f.Machine.TraceFn = nil
		return
	}
	f.Machine.TraceFn = func(r straightemu.Retired) {
		w.Inst(r.PC)
		if r.MemAddr != 0 {
			w.Data(r.MemAddr)
		}
		switch r.Inst.Op.Class() {
		case straight.ClassBranch:
			w.Branch(r.PC, r.NextPC != r.PC+program.InstructionBytes)
		case straight.ClassJump:
			// RAS and BTB training mirror straightcore's policy exactly:
			// JAL/JALR push pc+4 and JR pops (RASRecover), while only the
			// indirect JALR/JR enter the BTB (UpdatesBTB).
			switch r.Inst.Op {
			case straight.JAL:
				w.Call(r.PC + program.InstructionBytes)
			case straight.JALR:
				w.Call(r.PC + program.InstructionBytes)
				w.Indirect(r.PC, r.NextPC)
			case straight.JR:
				w.Return()
				w.Indirect(r.PC, r.NextPC)
			}
		}
	}
}

type riscvFF struct{ *riscvemu.Machine }

func (f riscvFF) TakeCheckpoint() checkpoint { return f.Checkpoint() }

func (f riscvFF) SetWarm(w *uarch.WarmState) {
	if w == nil {
		f.Machine.TraceFn = nil
		return
	}
	f.Machine.TraceFn = func(r riscvemu.Retired) {
		w.Inst(r.PC)
		if r.MemAddr != 0 {
			w.Data(r.MemAddr)
		}
		switch r.Inst.Op.Class() {
		case riscv.ClassBranch:
			w.Branch(r.PC, r.NextPC != r.PC+program.InstructionBytes)
		case riscv.ClassJump:
			// RAS and BTB training mirror sscore's policy (cgcore embeds
			// it): JAL/JALR with rd=ra push pc+4, JALR with rd=x0/rs1=ra
			// pops (RASRecover); only the indirect JALR enters the BTB
			// (UpdatesBTB).
			if r.Inst.Op == riscv.JAL || r.Inst.Op == riscv.JALR {
				if r.Inst.Rd == riscv.RegRA {
					w.Call(r.PC + program.InstructionBytes)
				}
				if r.Inst.Rd == 0 && r.Inst.Rs1 == riscv.RegRA {
					w.Return()
				}
			}
			if r.Inst.Op == riscv.JALR {
				w.Indirect(r.PC, r.NextPC)
			}
		}
	}
}

// Target binds a workload image to a core policy and configuration.
type Target struct {
	// Policy is a core registry name ("straight", "ss", "cg").
	Policy string
	Cfg    uarch.Config
	Img    *program.Image

	machine cores.Machine
}

// NewTarget builds a sampling target for a core registry name, core
// configuration, and image.
func NewTarget(policy string, cfg uarch.Config, img *program.Image) (*Target, error) {
	m, err := cores.Lookup(policy)
	if err != nil {
		return nil, fmt.Errorf("sampling: %w", err)
	}
	return &Target{Policy: policy, Cfg: cfg, Img: img, machine: m}, nil
}

// newFF builds the fast-forward emulator of the policy's ISA.
func (t *Target) newFF() ffMachine {
	if t.machine.ISA == cores.ISAStraight {
		return straightFF{straightemu.New(t.Img)}
	}
	return riscvFF{riscvemu.New(t.Img)}
}

// Options control one sampled run.
type Options struct {
	// Workers bounds concurrent sample windows; <= 0 means GOMAXPROCS.
	// The worker count never affects the report contents, only wall time.
	Workers int
	// Store, when non-nil, caches window results content-addressed by
	// checkpoint hash + config + plan (schema windowSchema).
	Store *resultstore.Store
	// NoIdleSkip forces strict cycle-by-cycle stepping in the windows.
	NoIdleSkip bool
	// Output receives the program's console output (written once, by the
	// fast-forward pass, which executes every instruction). nil discards.
	Output io.Writer
	// MaxInsns caps the fast-forward pass; 0 means the default cap. A
	// program that does not exit within the cap is an error, mirroring
	// the emulators' Run contract.
	MaxInsns uint64
	// Interrupt, when non-nil, cancels the run (uarch.ErrInterrupted):
	// polled between fast-forward intervals and inside window simulation.
	Interrupt *atomic.Bool
}

// defaultMaxInsns caps runaway fast-forwards (~22s at measured
// emulator throughput) far above the long-workload tier.
const defaultMaxInsns = 2_000_000_000

// point is one selected interval: its start (= checkpoint position),
// the checkpoint to restart from, and the functionally-warmed
// microarchitectural snapshot to adopt.
type point struct {
	start uint64
	ck    checkpoint
	enc   []byte // ck.MarshalBinary(): the window's content address
	warm  *uarch.WarmState
}

// Run fast-forwards the target's workload, measures the plan's sample
// windows on the detailed core, and reconstructs whole-program metrics.
func Run(t *Target, plan Plan, opts Options) (*Report, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()
	limit := opts.MaxInsns
	if limit == 0 {
		limit = defaultMaxInsns
	}

	// Phase 0: fully-cached fast path. When the store already holds this
	// image's checkpoint sequence AND every window derived from it, the
	// whole run — fast-forward included — reduces to hashing. Only
	// legal with no output sink: a cached run executes nothing, and the
	// program's console output is produced by execution.
	if opts.Store != nil && opts.Output == nil {
		if rep, ok := runFromStore(t, plan, opts, limit, wallStart); ok {
			return rep, nil
		}
	}

	// Phase 1: functional fast-forward, checkpointing every interval.
	ff := t.newFF()
	if opts.Output != nil {
		ff.SetOutput(opts.Output)
	}
	// Functional warming: continuous when WarmMem is 0 or covers the
	// whole interval, else a warming burst over the last WarmMem
	// instructions before each checkpoint (the tracer is the dominant
	// fast-forward cost, so bounding it preserves the speedup).
	warm := uarch.NewWarmState(t.Cfg)
	warmAll := plan.WarmMem == 0 || plan.WarmMem >= plan.Interval
	if warmAll {
		ff.SetWarm(warm)
	}
	var pts []point
	for k := uint64(0); ; k++ {
		target := plan.Offset + k*plan.Interval
		if target > limit {
			break
		}
		if opts.Interrupt != nil && opts.Interrupt.Load() {
			return nil, uarch.ErrInterrupted
		}
		if !warmAll && target > 0 {
			burst := target - min(plan.WarmMem, target)
			ff.SetWarm(nil)
			if err := ff.RunUntil(burst); err != nil {
				return nil, fmt.Errorf("sampling: fast-forward: %w", err)
			}
			ff.SetWarm(warm)
		}
		if err := ff.RunUntil(target); err != nil {
			return nil, fmt.Errorf("sampling: fast-forward: %w", err)
		}
		if done, _ := ff.Exited(); done {
			break
		}
		ck := ff.TakeCheckpoint()
		enc, err := ck.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("sampling: marshal checkpoint @%d: %w", target, err)
		}
		pts = append(pts, point{start: target, ck: ck, enc: enc, warm: warm.Clone()})
	}
	ff.SetWarm(nil)
	done, exitCode := ff.Exited()
	if !done {
		return nil, fmt.Errorf("sampling: %s/%s did not exit within %d instructions", t.Policy, t.Cfg.Name, limit)
	}
	total := ff.InstCount()
	if opts.Store != nil {
		// Persist the checkpoint sequence so the next run with this image
		// and checkpoint geometry (any policy/config on the same ISA) can
		// skip the fast-forward when its windows are all cached too.
		if err := opts.Store.Put(ffKey(t, plan, limit), encodeFFSeq(pts, total, exitCode)); err != nil {
			return nil, fmt.Errorf("sampling: store fast-forward: %w", err)
		}
	}
	ffWall := time.Since(wallStart)

	// Phase 2: fan the windows across the worker pool, one reusable core
	// per worker (Restart per window, construction once).
	windows, err := runWindows(t, plan, opts, pts)
	if err != nil {
		return nil, err
	}

	// Phase 3: reconstruct whole-program metrics.
	rep := reconstruct(t, plan, total, exitCode, windows)
	rep.Timing.FFSeconds = ffWall.Seconds()
	rep.Timing.WallSeconds = time.Since(wallStart).Seconds()
	rep.Timing.WindowSeconds = rep.Timing.WallSeconds - rep.Timing.FFSeconds
	if rep.Timing.WallSeconds > 0 {
		rep.Timing.EffectiveKIPS = float64(total) / rep.Timing.WallSeconds / 1000
	}
	for _, w := range windows {
		if w.Cached {
			rep.Timing.StoreHits++
		}
	}
	return rep, nil
}

// runFromStore attempts the fully-cached run: load the checkpoint
// sequence for this image and checkpoint geometry, derive every window's
// content address from the serialized checkpoints, and reconstruct the
// report purely from stored window results. Any miss — no cached
// fast-forward, a missing or corrupt window — abandons the fast path
// and reports false; Run then falls back to the executing path, which
// reseeds the store. The report is byte-identical (Report.Fingerprint)
// to a cold run's: every number in it comes from the same stored
// measurements the cold run produced.
func runFromStore(t *Target, plan Plan, opts Options, limit uint64, wallStart time.Time) (*Report, bool) {
	raw, ok := opts.Store.Get(ffKey(t, plan, limit))
	if !ok {
		return nil, false
	}
	seq, err := decodeFFSeq(raw)
	if err != nil {
		return nil, false
	}
	windows := make([]WindowResult, len(seq.points))
	for i := range seq.points {
		key, err := windowKey(t, plan, seq.encs[i])
		if err != nil {
			return nil, false
		}
		wraw, ok := opts.Store.Get(key)
		if !ok {
			return nil, false
		}
		wr, err := decodeWindow(wraw)
		if err != nil {
			return nil, false
		}
		wr.Index = i
		wr.Start = seq.points[i]
		wr.Key = key.String()
		wr.Cached = true
		windows[i] = wr
	}
	rep := reconstruct(t, plan, seq.total, seq.exit, windows)
	rep.Timing.WallSeconds = time.Since(wallStart).Seconds()
	rep.Timing.WindowSeconds = rep.Timing.WallSeconds
	if rep.Timing.WallSeconds > 0 {
		rep.Timing.EffectiveKIPS = float64(seq.total) / rep.Timing.WallSeconds / 1000
	}
	rep.Timing.StoreHits = len(windows)
	return rep, true
}

// runWindows executes every sample window on a bounded pool, returning
// results in interval order regardless of completion order (same
// discipline as the bench runner, so reports are identical at any
// worker count).
func runWindows(t *Target, plan Plan, opts Options, pts []point) ([]WindowResult, error) {
	results := make([]WindowResult, len(pts))
	errs := make([]error, len(pts))
	if len(pts) == 0 {
		return results, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var core cores.Sim // built on first real window, reused via Restart
			for idx := range next {
				if failed.Load() {
					continue
				}
				res, err := runOneWindow(t, plan, opts, &core, idx, pts[idx])
				if err != nil {
					errs[idx] = fmt.Errorf("sampling: window %d @%d: %w", idx, pts[idx].start, err)
					failed.Store(true)
					continue
				}
				results[idx] = res
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runOneWindow measures one sample window: result-store lookup first,
// else Restart-from-checkpoint, discarded warmup, measured window.
// *core is the worker's reusable core, built lazily so fully-cached
// sweeps construct no cores at all.
func runOneWindow(t *Target, plan Plan, opts Options, core *cores.Sim, idx int, p point) (WindowResult, error) {
	key, err := windowKey(t, plan, p.enc)
	if err != nil {
		return WindowResult{}, err
	}
	if opts.Store != nil {
		if raw, ok := opts.Store.Get(key); ok {
			if wr, err := decodeWindow(raw); err == nil {
				wr.Index = idx
				wr.Start = p.start
				wr.Key = key.String()
				wr.Cached = true
				return wr, nil
			}
			// Corrupted entry: fall through and recompute.
		}
	}

	if *core == nil {
		*core = t.machine.New(t.Cfg, t.Img, engine.Options{})
	}
	c := *core
	if err := c.Restart(t.Img, p.ck); err != nil {
		return WindowResult{}, err
	}
	c.AdoptWarm(p.warm)
	warmup, window := plan.Warmup, plan.Window
	if p.start == 0 && plan.Window == plan.Interval {
		// Dense tiling plans measure every instruction, and the entry
		// window restores at instruction 0, where cold state *is* the
		// true machine state — a warmup would discard real instructions
		// no other window measures. Promote it into the measured window
		// instead, so the tiling covers the program gaplessly from the
		// first instruction. Sparse plans do the opposite: there the
		// warmup's job is to discard the one-time cold-start transient,
		// which would otherwise be extrapolated to the entire first
		// interval (Interval/Window× its real weight).
		window += warmup
		warmup = 0
	}
	ropts := engine.Options{NoIdleSkip: opts.NoIdleSkip, Interrupt: opts.Interrupt}
	if warmup > 0 && !c.HasExited() {
		// The core's retired counter restarts at zero, so bounds are
		// window-relative. MaxInsns may overshoot by up to CommitWidth-1
		// — deterministically, so cached and fresh results still agree.
		ropts.MaxInsns = warmup
		if _, err := c.Run(ropts); err != nil {
			return WindowResult{}, fmt.Errorf("warmup: %w", err)
		}
	}
	s0 := c.Stats()
	if !c.HasExited() {
		ropts.MaxInsns = s0.Retired + window
		if _, err := c.Run(ropts); err != nil {
			return WindowResult{}, fmt.Errorf("measure: %w", err)
		}
	}
	delta := c.Stats().Sub(s0)

	wr := WindowResult{
		Index:         idx,
		Start:         p.start,
		Key:           key.String(),
		WarmupRetired: s0.Retired,
		Retired:       delta.Retired,
		Cycles:        delta.Cycles,
		Stats:         delta,
	}
	if wr.Retired > 0 {
		wr.CPI = float64(wr.Cycles) / float64(wr.Retired)
	}
	if err := validateWindow(wr); err != nil {
		return WindowResult{}, err
	}
	if opts.Store != nil {
		if err := opts.Store.Put(key, encodeWindow(wr)); err != nil {
			return WindowResult{}, fmt.Errorf("store put: %w", err)
		}
	}
	return wr, nil
}
