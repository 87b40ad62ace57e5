package engine

import (
	"fmt"

	"straight/internal/uarch"
)

// poolOf maps a µop class to the functional-unit pool that executes it
// (jumps share the branch units, stores the memory ports, nops the
// ALUs). A fixed array replaces the per-cycle map the issue loop used
// to build.
var poolOf = func() [uarch.NumClasses]uarch.Class {
	var p [uarch.NumClasses]uarch.Class
	for cl := uarch.Class(0); cl < uarch.NumClasses; cl++ {
		p[cl] = cl
	}
	p[uarch.ClassJump] = uarch.ClassBranch
	p[uarch.ClassStore] = uarch.ClassLoad
	p[uarch.ClassNop] = uarch.ClassALU
	return p
}()

// issue selects ready scheduler entries up to the issue width, respecting
// per-class functional-unit counts. Load latency is resolved at issue
// (the cache model is consulted immediately), which is equivalent to a
// perfect cache-hit predictor: dependents wake exactly when the data
// arrives and never need a replay. Only awake entries — those whose
// producers have all executed — are scanned; entries woken during the
// scan become visible next cycle, which cannot change any decision
// because a freshly woken entry's ready time is always in the future.
func (c *Core[I]) issue() {
	issued := 0
	var unit [uarch.NumClasses]int
	avail := [uarch.NumClasses]int{
		uarch.ClassALU: c.Cfg.NumALU, uarch.ClassMul: c.Cfg.NumMul,
		uarch.ClassDiv: c.Cfg.NumDiv, uarch.ClassBranch: c.Cfg.NumBr,
		uarch.ClassLoad: c.Cfg.NumMem,
	}
	kept := c.IQAwake[:0]
	for _, u := range c.IQAwake {
		if issued >= c.Cfg.IssueWidth || u.ReadyTime > c.Cycle {
			kept = append(kept, u)
			continue
		}
		// Coarse-grain gating: within a block, an entry may not issue
		// before its predecessor (GatePrev nil for ungated policies; a
		// recycled or squashed predecessor reads as already issued).
		if g := u.GatePrev; g != nil && g.Seq == u.GateSeq && !g.Squashed && g.State == uarch.StateDispatched {
			c.Stat.CGGateHolds++
			kept = append(kept, u)
			continue
		}
		pool := poolOf[u.Class]
		if unit[pool] >= avail[pool] {
			kept = append(kept, u)
			continue
		}
		c.Stat.IQWakeups++
		if u.Class == uarch.ClassDiv && c.Cycle < c.divBusy {
			kept = append(kept, u)
			continue
		}
		// Conservative loads wait until all older store addresses are
		// known (memory-dependence predictor said so).
		if u.IsLoad && c.shouldWaitForStores(u.PC) && !c.LSQ.OlderStoresResolved(u.Seq) {
			kept = append(kept, u)
			continue
		}
		if !c.pol.Execute(c, u) {
			kept = append(kept, u) // must retry (e.g. store-forward wait)
			continue
		}
		unit[pool]++
		issued++
		c.Stat.IQIssued++
		u.State = uarch.StateIssued
		u.IssuedAt = c.Cycle
		if c.tr != nil {
			c.tr.Issue(u.Tid, u.IsLoad || u.IsStore)
		}
		u.InIQ = false
		c.IQCount--
		c.Executing = append(c.Executing, u)
	}
	c.IQAwake = kept
	// Merge entries woken during the scan, keeping the list Seq-sorted.
	for _, u := range c.woken {
		lo, hi := 0, len(c.IQAwake)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if c.IQAwake[mid].Seq > u.Seq {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		c.IQAwake = append(c.IQAwake, nil)
		copy(c.IQAwake[lo+1:], c.IQAwake[lo:])
		c.IQAwake[lo] = u
	}
	c.woken = c.woken[:0]
}

// shouldWaitForStores applies the configured memory-dependence policy.
func (c *Core[I]) shouldWaitForStores(pc uint32) bool {
	switch c.Cfg.MemDep {
	case uarch.MemDepAlwaysSpeculate:
		return false
	case uarch.MemDepAlwaysWait:
		return true
	default:
		return c.mdp.ShouldWait(pc)
	}
}

// ReadSrc reads a physical register as an execution source (counting the
// port activity); -1 reads as zero.
//
//lint:hotpath
func (c *Core[I]) ReadSrc(phys int32) uint32 {
	if phys < 0 {
		return 0
	}
	c.Stat.RegReads++
	return c.PRF[phys]
}

// WakeDest publishes the µop's result timestamp on the scoreboard and
// wakes its waiters (no-op without a destination).
//
//lint:hotpath
func (c *Core[I]) WakeDest(u *Uop[I], t int64) {
	if u.Dest >= 0 {
		c.PRFReady[u.Dest] = t
		c.Wake(u.Dest, t)
	}
}

// LoadLookup runs the shared load machinery for a policy's Execute:
// LSQ disambiguation, store-to-load forwarding, and the cache access.
// ok=false means the load must retry next cycle (unknown older store
// address under a conservative policy). On success the raw loaded value
// is returned with u.ReadyAt already scheduled; the policy applies its
// ISA's width/sign extension and wakes the destination.
//
//lint:hotpath
func (c *Core[I]) LoadLookup(u *Uop[I], addr uint32, width int) (raw uint32, ok bool) {
	le := u.LSQE
	le.Addr = addr
	le.Size = uint8(width)
	le.AddrReady = true
	u.MemAddr = addr

	unknownOK := !c.shouldWaitForStores(u.PC)
	res, fwd := c.LSQ.LookupLoad(le, unknownOK)
	switch res {
	case uarch.LoadMustWait:
		le.AddrReady = false // retry fully next cycle
		return 0, false
	case uarch.LoadForwarded:
		raw = fwd
		u.ReadyAt = c.Cycle + 2 // AGU + forward
		c.Stat.StoreForwards++
	case uarch.LoadFromMemory:
		// Wrong-path or misaligned accesses read as zero harmlessly.
		if addr%uint32(width) == 0 {
			raw = c.mem.Load(addr, width)
		}
		lat := c.hier.AccessData(c.Cycle, addr)
		u.ReadyAt = c.Cycle + 1 + int64(lat)
	}
	le.Executed = true
	c.Stat.Loads++
	return raw, true
}

// StoreExec runs the shared store machinery for a policy's Execute:
// LSQ address/data publication and the disambiguation check against
// younger already-executed loads.
//
//lint:hotpath
func (c *Core[I]) StoreExec(u *Uop[I], addr uint32, width int, data uint32) {
	le := u.LSQE
	le.Addr = addr
	le.Size = uint8(width)
	le.AddrReady = true
	le.Data = data
	le.DataReady = true
	u.MemAddr = addr
	c.Stat.Stores++

	// Disambiguation: younger loads that already executed and overlap
	// have consumed stale data.
	if v := c.LSQ.OldestViolation(le); v != nil {
		c.mdp.RecordViolation(v.U.PC)
		c.Stat.MemDepViolations++
		c.QueueRecovery(c.robFindBySeq(v.U.Seq), v.U.PC, true)
	}
}

// robFindBySeq locates the in-flight µop with the given sequence number
// (the ROB is Seq-ordered, so a binary search suffices). It is only
// called on memory-dependence violations, where the violating load is
// guaranteed to still be in flight.
func (c *Core[I]) robFindBySeq(seq uint64) *Uop[I] {
	lo, hi := 0, c.ROB.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ROB.At(mid).Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.ROB.Len() {
		if u := c.ROB.At(lo); u.Seq == seq {
			return u
		}
	}
	panic(c.name + ": violating load not in ROB")
}

// completeExecution retires finished executions from the FU tracking list
// and handles branch resolution.
func (c *Core[I]) completeExecution() {
	kept := c.Executing[:0]
	for _, u := range c.Executing {
		if u.Squashed {
			continue
		}
		if c.Cycle < u.ReadyAt {
			kept = append(kept, u)
			continue
		}
		if u.Dest >= 0 {
			c.PRF[u.Dest] = u.Result
			c.Stat.RegWrites++
		}
		u.State = uarch.StateDone
		u.Completed = true
		if c.tr != nil {
			c.tr.Writeback(u.Tid)
		}
		if u.Class == uarch.ClassBranch || u.Class == uarch.ClassJump {
			c.resolveControl(u)
		}
	}
	c.Executing = kept
}

// resolveControl trains the predictors and queues recovery on a
// mispredict.
func (c *Core[I]) resolveControl(u *Uop[I]) {
	if u.IsBranch {
		c.Stat.CondBranches++
		c.Pred.Update(u.PC, u.Taken, u.PredMeta)
	}
	if c.pol.UpdatesBTB(u.Inst) {
		c.BTB.Insert(u.PC, u.Target)
	}
	predNext := u.PC + 4
	if u.PredTaken {
		predNext = u.PredTarget
	}
	actualNext := u.PC + 4
	if u.Taken {
		actualNext = u.Target
	}
	if predNext == actualNext {
		return
	}
	if u.IsBranch {
		c.Stat.Mispredicts++
		c.Pred.Recover(u.PredMeta, u.Taken)
	} else {
		c.Stat.TargetMispredict++
	}
	c.QueueRecovery(u, actualNext, false)
}

// QueueRecovery records the oldest pending recovery of this cycle.
func (c *Core[I]) QueueRecovery(u *Uop[I], targetPC uint32, isMemViolation bool) {
	if !c.recovValid || u.Seq < c.recov.U.Seq {
		c.recov = Recovery[I]{U: u, TargetPC: targetPC, IsMemViolation: isMemViolation}
		c.recovValid = true
	}
}

// SquashTail drops the youngest ROB entry during a policy's recovery
// walk: it must be the current ROB tail. The µop is marked squashed,
// removed from the scheduler occupancy, and parked on the dead list for
// recycling once recovery no longer references it.
//
//lint:hotpath
func (c *Core[I]) SquashTail(u *Uop[I]) {
	u.Squashed = true
	if u.InIQ {
		u.InIQ = false
		c.IQCount--
	}
	if c.tr != nil {
		c.tr.Squash(u.Tid)
	}
	c.dead = append(c.dead, u)
	c.ROB.Truncate(c.ROB.Len() - 1)
}

// applyRecovery squashes the wrong path and applies the policy's
// recovery model. For STRAIGHT a single ROB-entry read restores the
// register pointer and decode-time SP (paper §III-B, Fig 4); for the
// renamed superscalar the ROB is walked tail-first restoring the RMT and
// free list at the front-end width per cycle (paper §V-A).
func (c *Core[I]) applyRecovery() {
	if !c.recovValid {
		return
	}
	// r aliases the core field (not a local copy) so the interface call
	// below does not force a per-recovery heap allocation; nothing can
	// queue a new recovery while this one is applied.
	r := &c.recov
	c.recovValid = false
	boundary := r.U.Seq // squash everything younger than r.U
	if r.IsMemViolation {
		boundary = r.U.Seq - 1 // the violating load itself re-executes
	}

	walked := c.pol.RecoveryWalk(c, r, boundary)
	c.squashYounger(boundary)

	// Fetch redirect (next cycle).
	c.FetchPC = r.TargetPC
	c.FetchHalted = false
	for i := 0; i < c.feQueue.Len(); i++ {
		e := c.feQueue.Slot(i)
		if c.tr != nil {
			c.tr.Squash(e.Tid)
		}
		if e.RASSnap != nil {
			c.snapPut(e.RASSnap)
		}
	}
	c.feQueue.Clear()
	if c.UseOracle {
		// Oracle fetch never leaves the true path; a memory-violation
		// replay still rewinds it.
		c.pol.ResyncOracle(c)
	}
	if r.U.RASSnap != nil {
		c.RAS.Restore(r.U.RASSnap)
		c.pol.RASRecover(c, r.U)
	}
	// All wrong-path µops are now unreachable from every pipeline
	// structure (stale waiter links are seq-tagged); recycle them.
	for _, u := range c.dead {
		c.freeUop(u)
	}
	c.dead = c.dead[:0]
	if c.Cfg.ZeroMispredictPenalty {
		c.FetchStallUntil = c.Cycle + 1
		return
	}
	c.FetchStallUntil = c.Cycle + 2
	c.pol.RecoveryPenalty(c, walked)
}

// squashYounger removes wrong-path µops from every structure.
func (c *Core[I]) squashYounger(seq uint64) {
	// The awake list is Seq-sorted, so the squash is a tail truncation.
	lo, hi := 0, len(c.IQAwake)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.IQAwake[mid].Seq > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c.IQAwake = c.IQAwake[:lo]
	keptX := c.Executing[:0]
	for _, u := range c.Executing {
		if u.Seq <= seq {
			keptX = append(keptX, u)
		}
	}
	c.Executing = keptX
	c.LSQ.SquashYounger(seq)
	c.Serializing = c.robHasSerialize()
}

func (c *Core[I]) robHasSerialize() bool {
	for i := 0; i < c.ROB.Len(); i++ {
		if c.ROB.At(i).Serialize {
			return true
		}
	}
	return false
}

// commit retires completed µops in order, performing stores and
// (serialized) syscalls against architectural state, and cross-validates
// against the golden emulator.
func (c *Core[I]) commit(opts *Options) error {
	for n := 0; n < c.Cfg.CommitWidth && c.ROB.Len() > 0; n++ {
		u := c.ROB.Front()
		if !u.Completed || u.Squashed || c.Cycle < u.ReadyAt {
			return nil
		}

		if u.Serialize {
			// Execute via the golden emulator (it is exactly at this
			// instruction), propagating output and exit.
			if err := c.pol.CommitSerialize(c, u); err != nil {
				return err
			}
			c.Serializing = false
			if err := c.finishRetire(u); err != nil {
				return err
			}
			continue
		}

		if u.IsStore {
			width := int(u.LSQE.Size)
			if u.MemAddr%uint32(width) != 0 {
				return fmt.Errorf("%s: misaligned store committed at pc=%#x addr=%#x", c.name, u.PC, u.MemAddr) //lint:alloc cross-validation abort; the run ends here
			}
			c.mem.Store(u.MemAddr, u.LSQE.Data, width)
			c.hier.AccessData(c.Cycle, u.MemAddr) // fill/dirty the line
		}
		if u.IsLoad && c.Cfg.MemDep == uarch.MemDepPredict && c.mdp.ShouldWait(u.PC) {
			c.mdp.RecordSuccess(u.PC)
		}

		// Step (and optionally cross-validate against) the golden model.
		if err := c.pol.CommitRetire(c, u, opts.CrossValidate); err != nil {
			return err
		}

		if err := c.finishRetire(u); err != nil {
			return err
		}
	}
	return nil
}

func (c *Core[I]) finishRetire(u *Uop[I]) error {
	var r *uarch.Retirement
	if c.retireFn != nil {
		c.ret = uarch.Retirement{
			Seq:     c.Stat.Retired,
			PC:      u.PC,
			LogReg:  -1,
			IsStore: u.IsStore,
			MemAddr: u.MemAddr,
		}
		r = &c.ret
	}
	c.pol.OnRetire(c, u, r)
	if u.IsLoad || u.IsStore {
		c.LSQ.Retire(&u.UOp)
	}
	if c.tr != nil {
		c.tr.Commit(u.Tid)
	}
	c.ROB.PopFront()
	var err error
	if r != nil {
		err = c.retireFn(*r)
	}
	c.Stat.Retired++
	c.Stat.RetiredByClass[u.Class]++
	c.freeUop(u)
	return err
}

// SetDivBusy marks the (single) divider busy until t; Execute hooks call
// it when scheduling a divide.
//
//lint:hotpath
func (c *Core[I]) SetDivBusy(t int64) { c.divBusy = t }
