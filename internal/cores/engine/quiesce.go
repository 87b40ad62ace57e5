package engine

import (
	"straight/internal/ptrace"
	"straight/internal/uarch"
)

// Idle-cycle skipping (DESIGN.md §12): when the whole pipeline is
// provably waiting on time — every in-flight µop's completion lies in
// the future, the scheduler has no entry whose ready time has passed,
// dispatch is blocked by a condition only a future event can change, and
// fetch is stalled or halted — the per-cycle step degenerates to pure
// counter updates. advance detects that state, computes the earliest
// future event with a uarch.EventHorizon, and applies the whole idle
// window in one bulk update that is bit-identical to stepping it.
//
// Soundness rests on two facts checked below:
//   - every veto condition ("something acts this cycle") is exactly the
//     guard the corresponding pipeline stage evaluates, and
//   - every condition that can change a stage's classification is a
//     time threshold observed into the horizon; all other inputs are
//     core state that only active cycles mutate.
//
// The rename wrinkle (superscalar policies): a dispatch cycle blocked on
// an empty free list still consumes a sequence number and charges RMT
// read ports every cycle, so the bulk update replicates those per-cycle
// side effects exactly (see DispatchIdleTail).

// advance moves the simulation forward by at least one cycle and at most
// limit cycles, using the idle-skip fast path when the previous step
// made no visible progress. It returns the number of cycles consumed.
//
//lint:hotpath
func (c *Core[I]) advance(opts *Options, limit int64) (int64, error) {
	if !c.noIdleSkip {
		sig := c.activitySignature()
		if sig == c.lastSig {
			if k := c.trySkip(limit); k > 0 {
				return k, nil
			}
		}
		c.lastSig = sig
	}
	return 1, c.step(opts)
}

// activitySignature folds together the counters and occupancies that
// change whenever a cycle performs real work. The skip gate only
// attempts the (more expensive) full quiescence check when the
// signature did not move across the previous step; collisions merely
// cost a rejected trySkip, never correctness. RenameReads and seq are
// deliberately excluded: free-list-blocked cycles mutate both every
// cycle yet are still skippable (trySkip re-derives exactly those
// per-cycle charges in bulk), so including them would gate the fast
// path shut for the one stall cause it helps most on small register
// files.
func (c *Core[I]) activitySignature() uint64 {
	sig := c.Stat.Retired
	sig = sig*31 + c.Stat.FetchedInsts
	sig = sig*31 + c.Stat.IQWakeups
	sig = sig*31 + c.Stat.RegWrites
	sig = sig*31 + uint64(c.ROB.Len())
	sig = sig*31 + uint64(c.feQueue.Len())
	sig = sig*31 + uint64(len(c.Executing))
	sig = sig*31 + uint64(len(c.IQAwake))
	return sig
}

// trySkip checks the all-queues-quiescent condition and, when it holds,
// advances the clock directly to the next event (bounded by limit),
// bulk-updating every cycle-dependent counter exactly as limit single
// steps would have. It returns the number of cycles skipped (0 = the
// cycle is active and must be stepped normally).
func (c *Core[I]) trySkip(limit int64) int64 {
	if c.Exited || c.recovValid || len(c.woken) > 0 || limit <= 0 {
		return 0
	}
	h := uarch.NewEventHorizon()

	// Commit: the ROB head retires the moment its result timestamp
	// passes (serialized µops are Completed at dispatch with ReadyAt
	// set).
	if c.ROB.Len() > 0 {
		u := c.ROB.Front()
		if u.Completed {
			if u.ReadyAt <= c.Cycle {
				return 0
			}
			h.Observe(u.ReadyAt)
		}
	}
	// Functional units: completeExecution acts at each entry's ReadyAt.
	for _, u := range c.Executing {
		if u.ReadyAt <= c.Cycle {
			return 0
		}
		h.Observe(u.ReadyAt)
	}
	// Scheduler: issue scans every awake entry whose ready time has
	// passed — even ones that then stay blocked (FU busy, memory
	// dependence), because the scan itself counts wakeups.
	for _, u := range c.IQAwake {
		if u.ReadyTime <= c.Cycle {
			return 0
		}
		h.Observe(u.ReadyTime)
	}
	dCause, dCharged, renameReads, idle := c.dispatchIdleClass(&h)
	if !idle {
		return 0
	}
	feStalled, idle := c.fetchIdleClass(&h)
	if !idle {
		return 0
	}

	k := h.SkipWidth(c.Cycle, limit)
	if k <= 0 {
		return 0
	}

	// Apply k frozen cycles in bulk. The dispatch and fetch
	// classifications are constant across the window (every input that
	// could flip them is either future-event-bounded above or mutated
	// only by active cycles), so each per-cycle charge scales by k.
	if dCharged {
		switch dCause {
		case ptrace.StallRecovery:
			c.Stat.RecoveryStall += k
		case ptrace.StallFrontEnd:
			c.Stat.StallFrontEnd += k
		case ptrace.StallSPAddLimit:
			c.Stat.StallSPAddLimit += k
		case ptrace.StallROBFull:
			c.Stat.StallROBFull += k
		case ptrace.StallIQFull:
			c.Stat.StallIQFull += k
		case ptrace.StallLSQFull:
			c.Stat.StallLSQFull += k
		case ptrace.StallFreeList:
			// A free-list-blocked dispatch burns a sequence number and
			// re-reads the RMT ports every cycle before bailing out.
			c.Stat.StallFreeList += k
			c.Stat.RenameReads += uint64(k) * renameReads
			c.seq += uint64(k)
		}
	}
	if feStalled {
		c.Stat.StallFrontEnd += k
	}
	c.Stat.Cycles += k
	c.Stat.ROBOccupancy += k * int64(c.ROB.Len())
	c.Stat.IQOccupancy += k * int64(c.IQCount)
	if c.tr != nil {
		c.replayIdle(k, dCause, dCharged, feStalled)
	}
	c.Cycle += k
	c.skip.SkippedCycles += k
	c.skip.Events++
	return k
}

// dispatchIdleClass classifies what dispatch would do this cycle without
// doing it. idle=false means dispatch would accept the queue head (an
// active cycle). When idle, cause/charged name the stall counter the
// cycle accrues (charged=false: one of dispatch's silent waits), and any
// threshold that can change the classification is folded into h. The
// checks mirror dispatch's ladder exactly, in order; the policy supplies
// the final rename-blocked rung (renameReads is the number of
// RenameReads a free-list-blocked cycle charges, 0 otherwise).
func (c *Core[I]) dispatchIdleClass(h *uarch.EventHorizon) (cause ptrace.StallCause, charged bool, renameReads uint64, idle bool) {
	if c.Cycle < c.RenameBlock {
		h.Observe(c.RenameBlock)
		return ptrace.StallRecovery, true, 0, true
	}
	if c.feQueue.Len() == 0 {
		return ptrace.StallFrontEnd, true, 0, true
	}
	e := c.feQueue.Slot(0)
	if c.Cycle-e.FetchedAt < int64(c.Cfg.FrontEndLatency) {
		h.Observe(e.FetchedAt + int64(c.Cfg.FrontEndLatency))
		return 0, false, 0, true
	}
	if c.Serializing {
		return 0, false, 0, true
	}
	if e.Info.Serialize && c.ROB.Len() > 0 {
		return 0, false, 0, true
	}
	// With zero SPADDs dispatched this cycle, the per-group limit only
	// blocks when the config disables SPADD rename entirely.
	if e.Info.SPAdd && c.Cfg.SPAddPerGroup <= 0 {
		return ptrace.StallSPAddLimit, true, 0, true
	}
	if c.ROB.Len() >= c.Cfg.ROBSize {
		return ptrace.StallROBFull, true, 0, true
	}
	if c.IQCount >= c.Cfg.SchedulerSize {
		return ptrace.StallIQFull, true, 0, true
	}
	isLoad := e.Info.Class == uarch.ClassLoad
	isStore := e.Info.Class == uarch.ClassStore
	if (isLoad || isStore) && !c.LSQ.CanAllocate(isLoad) {
		return ptrace.StallLSQFull, true, 0, true
	}
	if rr, blocked := c.pol.DispatchIdleTail(c, e.Inst); blocked {
		return ptrace.StallFreeList, true, rr, true
	}
	return 0, false, 0, false
}

// fetchIdleClass classifies fetch: idle=false means fetch would access
// the I-cache this cycle (cache state mutates — an active cycle). When
// idle, stalled reports whether the cycle charges StallFrontEnd (a
// full fetch queue waits silently).
func (c *Core[I]) fetchIdleClass(h *uarch.EventHorizon) (stalled, idle bool) {
	if c.Cycle < c.FetchStallUntil || c.FetchHalted {
		if !c.FetchHalted {
			h.Observe(c.FetchStallUntil)
		}
		return true, true
	}
	if c.feQueue.Len()+c.Cfg.FetchWidth > c.feCap {
		return false, true
	}
	return false, false
}

// replayIdle re-emits the tracer calls of k idle cycles one by one, in
// the exact order step produces them (BeginCycle, dispatch stall, fetch
// stall, Sample), so Kanata output and the windowed stall series are
// byte-identical with skipping enabled.
//
//lint:tracerguarded called only from the traced replay path; the caller checks c.tr
func (c *Core[I]) replayIdle(k int64, dCause ptrace.StallCause, dCharged, feStalled bool) {
	lq, sq := c.LSQ.Occupancy()
	for i := int64(0); i < k; i++ {
		c.tr.BeginCycle(c.Cycle + i)
		if dCharged {
			c.TraceStall(dCause)
		}
		if feStalled {
			c.tr.Stall(ptrace.StallFrontEnd, 0)
		}
		c.tr.Sample(c.ROB.Len(), c.IQCount, lq, sq)
	}
}

// SkipStats returns the idle-skip telemetry accumulated so far.
func (c *Core[I]) SkipStats() uarch.SkipStats { return c.skip }
