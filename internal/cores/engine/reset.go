package engine

import (
	"straight/internal/program"
	"straight/internal/uarch"
)

// Reset returns the core to power-on state so another run can start
// without rebuilding it (the batch-mode reuse contract, DESIGN.md §12).
// Every preallocated structure — the µop arena, the ROB and fetch-queue
// rings, the scheduler lists, the RAS-snapshot pool, cache and
// predictor tables, the sparse memory's page frames, the policy's
// rename structures — is reused in place, so batched runs pay no
// per-run allocation or warmup.
//
// Pass nil to rerun the current image, or a new image to multiplex a
// different program through the same core; only a new image rebuilds
// the predecoded text table. The configuration (and hence every
// structure capacity) is unchanged either way. A reset core is
// observably identical to a freshly constructed one: the next run's
// Stats, output, exit code, and retire stream match a fresh core bit
// for bit (proven by TestResetEquivalence). An attached Tracer is NOT
// reset — batch runs are untraced.
func (c *Core[I]) Reset(img *program.Image) {
	if img == nil {
		img = c.img
	}
	if img != c.img {
		c.img = img
		c.predecode()
	}

	// Recycle pooled resources still owned by in-flight state before
	// clearing the structures that reference them.
	for i := 0; i < c.feQueue.Len(); i++ {
		if s := c.feQueue.Slot(i).RASSnap; s != nil {
			c.snapPut(s)
		}
	}
	c.feQueue.Clear()
	for i := 0; i < c.ROB.Len(); i++ {
		c.freeUop(c.ROB.At(i)) // returns RAS snapshots too
	}
	c.ROB.Clear()
	c.IQAwake = c.IQAwake[:0]
	c.woken = c.woken[:0]
	c.Executing = c.Executing[:0]
	c.dead = c.dead[:0]
	c.IQCount = 0
	c.resetWaiters()
	for i := range c.PRF {
		c.PRF[i] = 0
		c.PRFReady[i] = 0
	}

	c.Stat = uarch.Stats{}
	c.Cycle = 0
	c.seq = 0
	c.FetchPC = img.Entry
	c.FetchStallUntil = 0
	c.FetchHalted = false
	c.RenameBlock = 0
	c.Serializing = false
	c.recov = Recovery[I]{}
	c.recovValid = false
	c.divBusy = 0
	c.Exited = false
	c.ExitCode = 0
	c.ret = uarch.Retirement{}
	c.lastSig = ^uint64(0)
	c.skip = uarch.SkipStats{}
	c.outBuf.buf = c.outBuf.buf[:0]

	// Policy state: architectural register init (RP/SP or RMT/free
	// list) and the golden emulators.
	c.pol.Reset(c, img)

	c.hier.Reset()
	c.Pred.Reset()
	c.BTB.Reset()
	c.RAS.Reset()
	c.mdp.Reset()
	c.LSQ.Reset()
	c.mem.Reset()
	c.mem.LoadImage(img)
}
