package engine

import (
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
)

// fetch models the front end: I-cache access, pre-decode-assisted branch
// prediction (direct targets computed from the instruction bytes; BTB for
// indirect jumps; RAS for returns), and the fetch-to-dispatch pipe of
// FrontEndLatency stages. On the speculative path it fetches whatever the
// predicted PC points at — wrong-path fetch pollutes the caches just like
// the real machine.
func (c *Core[I]) fetch() {
	if c.Cycle < c.FetchStallUntil || c.FetchHalted {
		c.Stat.StallFrontEnd++
		if c.tr != nil {
			c.tr.Stall(ptrace.StallFrontEnd, 0)
		}
		return
	}
	if c.feQueue.Len()+c.Cfg.FetchWidth > c.feCap {
		return
	}
	pc := c.FetchPC

	// One I-cache access per fetch group; a miss stalls the group.
	lat := c.hier.AccessInst(c.Cycle, pc)
	if lat > c.Cfg.L1I.HitLatency {
		c.FetchStallUntil = c.Cycle + int64(lat-c.Cfg.L1I.HitLatency)
		return
	}

	for i := 0; i < c.Cfg.FetchWidth; i++ {
		// Misaligned, out-of-text and undecodable PCs (wrong-path
		// garbage) stop fetch until the next redirect.
		idx := (pc - c.img.TextBase) / program.InstructionBytes
		if pc%program.InstructionBytes != 0 || idx >= uint32(len(c.dec)) || !c.dec[idx].ok {
			c.FetchHalted = true
			return
		}
		d := &c.dec[idx]
		inst, info := d.inst, d.info
		e := c.feQueue.PushBackSlot()
		e.PC, e.Inst, e.Info, e.FetchedAt = pc, inst, info, c.Cycle
		if c.tr != nil {
			e.Tid = c.tr.Fetch(pc, inst.String())
		}
		nextPC := pc + 4
		if c.UseOracle {
			// Oracle mode: the lockstep emulator gives the true next PC
			// for every instruction.
			if info.Class == uarch.ClassBranch {
				e.IsBranch = true
				_, meta := c.Pred.Predict(pc) // statistics only
				e.PredMeta = meta
			}
			c.pol.OracleStep()
			next := c.pol.OraclePC()
			if info.IsControl {
				e.PredTaken = next != pc+4 || info.Class == uarch.ClassJump
				e.PredTarget = next
			}
			nextPC = next
		} else if info.IsControl {
			if c.RAS.Depth() > 0 {
				e.RASSnap = c.RAS.SnapshotInto(c.snapGet())
			}
			taken, target := c.pol.PredictControl(c, pc, inst, e)
			if taken {
				nextPC = target
			}
			e.PredTaken = taken
			e.PredTarget = target
		}
		c.Stat.FetchedInsts++
		pc = nextPC
		c.FetchPC = pc
		if e.Info.IsControl && nextPC != e.PC+4 {
			break // redirected fetch group ends at a taken branch
		}
	}
}

// TraceStall attributes a dispatch-blocked cycle to cause, naming the
// head of the front-end queue when one is waiting.
func (c *Core[I]) TraceStall(cause ptrace.StallCause) {
	if c.tr == nil {
		return
	}
	var id ptrace.ID
	if c.feQueue.Len() > 0 {
		id = c.feQueue.Slot(0).Tid
	}
	c.tr.Stall(cause, id)
}

// dispatch resolves operands for (renames) and inserts up to FetchWidth
// instructions into the ROB/scheduler/LSQ.
func (c *Core[I]) dispatch() error {
	if c.Cycle < c.RenameBlock {
		c.Stat.RecoveryStall++
		c.TraceStall(ptrace.StallRecovery)
		return nil
	}
	spadds := 0
	for n := 0; n < c.Cfg.FetchWidth; n++ {
		if c.feQueue.Len() == 0 {
			c.Stat.StallFrontEnd++
			c.TraceStall(ptrace.StallFrontEnd)
			return nil
		}
		e := c.feQueue.Slot(0)
		if c.Cycle-e.FetchedAt < int64(c.Cfg.FrontEndLatency) {
			return nil
		}
		if c.Serializing {
			// A serializing instruction is draining the ROB.
			return nil
		}
		if e.Info.Serialize && c.ROB.Len() > 0 {
			return nil // drain before the serializing instruction
		}
		if e.Info.SPAdd && spadds >= c.Cfg.SPAddPerGroup {
			c.Stat.StallSPAddLimit++
			c.TraceStall(ptrace.StallSPAddLimit)
			return nil
		}
		if c.ROB.Len() >= c.Cfg.ROBSize {
			c.Stat.StallROBFull++
			c.TraceStall(ptrace.StallROBFull)
			return nil
		}
		if c.IQCount >= c.Cfg.SchedulerSize {
			c.Stat.StallIQFull++
			c.TraceStall(ptrace.StallIQFull)
			return nil
		}
		isLoad := e.Info.Class == uarch.ClassLoad
		isStore := e.Info.Class == uarch.ClassStore
		if (isLoad || isStore) && !c.LSQ.CanAllocate(isLoad) {
			c.Stat.StallLSQFull++
			c.TraceStall(ptrace.StallLSQFull)
			return nil
		}

		// ISA-neutral µop construction; the policy's Rename resolves the
		// operands (distance arithmetic or RMT/free-list rename).
		u := c.allocUop()
		u.Seq = c.nextSeq()
		u.PC = e.PC
		u.Class = e.Info.Class
		u.Dest, u.Src1, u.Src2 = -1, -1, -1
		u.PredTaken = e.PredTaken
		u.PredTarget = e.PredTarget
		u.PredMeta = e.PredMeta
		u.IsLoad = isLoad
		u.IsStore = isStore
		u.Inst = e.Inst
		u.Tid = e.Tid
		u.IsBranch = e.IsBranch
		u.Serialize = e.Info.Serialize
		u.LogDest = -1
		u.OldDest = -1
		if !c.pol.Rename(c, u) {
			// The fetch entry stays queued (and keeps its RAS snapshot);
			// only the µop shell is recycled. The burned sequence number
			// models the rename group slot the blocked cycle occupied.
			c.freeUop(u)
			return nil
		}
		if e.Info.SPAdd {
			spadds++
		}
		u.RASSnap = e.RASSnap
		c.feQueue.PopFront() // e is dead from here on; u carries its fields
		c.ROB.PushBack(u)
		if isLoad || isStore {
			u.LSQE = c.LSQ.Allocate(&u.UOp)
		}
		if c.tr != nil {
			c.tr.Dispatch(u.Tid, u.Dest, u.Src1, u.Src2)
		}
		if u.Serialize {
			// Executes at commit; ready immediately, skips the scheduler.
			u.State = uarch.StateDone
			u.ReadyAt = c.Cycle
			u.Completed = true
			c.Serializing = true
			if c.tr != nil {
				c.tr.Writeback(u.Tid)
			}
			continue
		}
		c.enterIQ(u)
	}
	return nil
}

// enterIQ registers a dispatched µop with the wakeup scheduler: sources
// whose producers have already executed contribute their ready time;
// the rest register a waiter and keep the entry asleep until the last
// producer's wakeup.
func (c *Core[I]) enterIQ(u *Uop[I]) {
	if u.Src1 >= 0 {
		if t := c.PRFReady[u.Src1]; t == FarFuture {
			u.Pending++
			c.waiters[u.Src1] = append(c.waiters[u.Src1], waiter[I]{u, u.Seq})
		} else if t > u.ReadyTime {
			u.ReadyTime = t
		}
	}
	if u.Src2 >= 0 {
		if t := c.PRFReady[u.Src2]; t == FarFuture {
			u.Pending++
			c.waiters[u.Src2] = append(c.waiters[u.Src2], waiter[I]{u, u.Seq})
		} else if t > u.ReadyTime {
			u.ReadyTime = t
		}
	}
	u.InIQ = true
	c.IQCount++
	if u.Pending == 0 {
		// Dispatch order is Seq order, so appending keeps the awake
		// list sorted.
		c.IQAwake = append(c.IQAwake, u)
	}
}

// Wake is called after every real (non-FarFuture) write to PRFReady[reg]:
// it drains the register's waiter list, propagating the ready time and
// moving fully-woken entries to the awake list. Stale links (squashed
// and recycled µops) are skipped via the seq tag.
//
//lint:hotpath
func (c *Core[I]) Wake(reg int32, t int64) {
	ws := c.waiters[reg]
	if len(ws) == 0 {
		return
	}
	for _, w := range ws {
		if w.u.Seq != w.seq || !w.u.InIQ {
			continue
		}
		if t > w.u.ReadyTime {
			w.u.ReadyTime = t
		}
		w.u.Pending--
		if w.u.Pending == 0 {
			c.woken = append(c.woken, w.u)
		}
	}
	c.waiters[reg] = ws[:0]
}
