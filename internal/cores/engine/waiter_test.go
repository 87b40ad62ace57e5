package engine

import (
	"testing"

	"straight/internal/uarch"
)

// fakeInst is the minimal Inst payload for scheduler-only tests.
type fakeInst struct{}

func (fakeInst) String() string { return "fake" }

// schedCore builds a Core with just enough state for enterIQ, Wake and
// SquashTail: a PRF-ready table, the waiter lists and pool sized as New
// sizes them for a scheduler of schedSize entries, and a ROB.
func schedCore(regs, schedSize int) *Core[fakeInst] {
	c := &Core[fakeInst]{
		name:      "sched",
		PRFReady:  make([]int64, regs),
		waitLists: make([]waitList, regs),
		waitPool:  make([]waitNode[fakeInst], 2*schedSize),
		ROB:       uarch.NewRing[*Uop[fakeInst]](4 * schedSize),
	}
	c.resetWaiters()
	return c
}

// dispatchUop enters u into the ROB and the scheduler, as dispatch does.
func dispatchUop(c *Core[fakeInst], u *Uop[fakeInst]) {
	c.ROB.PushBack(u)
	c.enterIQ(u)
}

// freeNodes counts the waiter pool's free list.
func freeNodes(c *Core[fakeInst]) int {
	n := 0
	for i := c.waitFree; i >= 0; i = c.waitPool[i].next {
		n++
	}
	return n
}

// listLen counts reg's waiter list, checking its back links on the way.
func listLen(t *testing.T, c *Core[fakeInst], reg int32) int {
	t.Helper()
	l := c.waitLists[reg]
	n, prev := 0, int32(-1)
	for i := l.head; i >= 0; i = c.waitPool[i].next {
		if c.waitPool[i].prev != prev {
			t.Fatalf("reg %d node %d: prev %d, want %d", reg, i, c.waitPool[i].prev, prev)
		}
		prev = i
		n++
	}
	if l.tail != prev {
		t.Fatalf("reg %d: tail %d, want %d", reg, l.tail, prev)
	}
	return n
}

func uop(seq uint64, src1, src2 int32) *Uop[fakeInst] {
	u := &Uop[fakeInst]{}
	u.Seq = seq
	u.Src1 = src1
	u.Src2 = src2
	return u
}

// TestWakeupScheduler is the table-driven contract of enterIQ + Wake:
// ready sources contribute their ready time immediately, in-flight
// sources park the entry on a waiter list, and the last producer's wake
// moves it to the woken list with the max ready time.
func TestWakeupScheduler(t *testing.T) {
	const far = FarFuture
	cases := []struct {
		name       string
		ready      map[int32]int64 // PRFReady overrides (default 0 = ready now)
		src1, src2 int32
		wakes      []struct {
			reg int32
			t   int64
		}
		wantAwakeAtEnter bool
		wantWokenAfter   bool
		wantReadyTime    int64
	}{
		{
			name:             "no sources is awake immediately",
			src1:             -1,
			src2:             -1,
			wantAwakeAtEnter: true,
			wantReadyTime:    0,
		},
		{
			name:             "both sources already executed",
			ready:            map[int32]int64{3: 7, 4: 5},
			src1:             3,
			src2:             4,
			wantAwakeAtEnter: true,
			wantReadyTime:    7, // max of the two
		},
		{
			name:  "one in-flight source wakes later",
			ready: map[int32]int64{3: far},
			src1:  3,
			src2:  -1,
			wakes: []struct {
				reg int32
				t   int64
			}{{3, 12}},
			wantWokenAfter: true,
			wantReadyTime:  12,
		},
		{
			name:  "two in-flight sources need both wakes",
			ready: map[int32]int64{3: far, 4: far},
			src1:  3,
			src2:  4,
			wakes: []struct {
				reg int32
				t   int64
			}{{3, 9}, {4, 15}},
			wantWokenAfter: true,
			wantReadyTime:  15,
		},
		{
			name:  "mixed ready and in-flight keeps the max",
			ready: map[int32]int64{3: 20, 4: far},
			src1:  3,
			src2:  4,
			wakes: []struct {
				reg int32
				t   int64
			}{{4, 6}},
			wantWokenAfter: true,
			wantReadyTime:  20, // the already-ready source dominates
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := schedCore(8, 4)
			for r, v := range tc.ready {
				c.PRFReady[r] = v
			}
			u := uop(1, tc.src1, tc.src2)
			c.enterIQ(u)
			if !u.InIQ || c.IQCount != 1 {
				t.Fatalf("enterIQ: InIQ=%v IQCount=%d", u.InIQ, c.IQCount)
			}
			gotAwake := len(c.IQAwake) == 1
			if gotAwake != tc.wantAwakeAtEnter {
				t.Fatalf("awake at enter = %v, want %v (pending %d)", gotAwake, tc.wantAwakeAtEnter, u.Pending)
			}
			for i, w := range tc.wakes {
				c.PRFReady[w.reg] = w.t
				c.Wake(w.reg, w.t)
				if i < len(tc.wakes)-1 && len(c.woken) != 0 {
					t.Fatalf("woke after %d of %d wakes", i+1, len(tc.wakes))
				}
			}
			if tc.wantWokenAfter {
				if len(c.woken) != 1 || c.woken[0] != u {
					t.Fatalf("after wakes: woken=%d entries", len(c.woken))
				}
				if u.Pending != 0 {
					t.Fatalf("Pending=%d after all wakes", u.Pending)
				}
			}
			if u.ReadyTime != tc.wantReadyTime {
				t.Errorf("ReadyTime=%d, want %d", u.ReadyTime, tc.wantReadyTime)
			}
		})
	}
}

// TestSquashUnparksWaiters pins the tail-unlink argument: the recovery
// walk squashes the youngest entry first, so a squashed waiting entry's
// nodes are the tails of their lists and go straight back to the pool,
// including both nodes of a Src1 == Src2 entry and none of a source
// whose producer already woke it. A later Wake touches only the live
// entries left behind.
func TestSquashUnparksWaiters(t *testing.T) {
	c := schedCore(8, 4)
	for _, r := range []int32{3, 4, 5} {
		c.PRFReady[r] = FarFuture
	}
	live := uop(1, 3, -1)
	woken := uop(2, 4, 3) // reg 4 wakes it before the squash
	both := uop(3, 3, 4)
	same := uop(4, 5, 5)
	for _, u := range []*Uop[fakeInst]{live, woken, both, same} {
		dispatchUop(c, u)
	}
	if free := freeNodes(c); free != 8-7 {
		t.Fatalf("setup: %d free nodes, want 1", free)
	}
	c.PRFReady[4] = 6
	c.Wake(4, 6)
	if woken.Pending != 1 || both.Pending != 1 || listLen(t, c, 4) != 0 {
		t.Fatalf("reg 4 wake: pending %d/%d, list %d", woken.Pending, both.Pending, listLen(t, c, 4))
	}

	// Tail-first, as the policies' recovery walks squash.
	for _, u := range []*Uop[fakeInst]{same, both, woken} {
		c.SquashTail(u)
		if u.Pending != 0 || u.InIQ {
			t.Fatalf("squashed seq %d: pending %d inIQ %v", u.Seq, u.Pending, u.InIQ)
		}
	}
	if got := listLen(t, c, 5); got != 0 {
		t.Errorf("Src1 == Src2 entry left %d nodes on reg 5", got)
	}
	if got := listLen(t, c, 3); got != 1 || c.waitPool[c.waitLists[3].head].u != live {
		t.Fatalf("reg 3 holds %d nodes, want only the live entry's", got)
	}
	if free := freeNodes(c); free != 8-1 {
		t.Errorf("%d free nodes after the squash, want 7", free)
	}
	if c.IQCount != 1 {
		t.Errorf("IQCount %d, want 1", c.IQCount)
	}

	squashed := []*Uop[fakeInst]{woken, both, same}
	before := make([]int64, len(squashed))
	for i, u := range squashed {
		before[i] = u.ReadyTime
	}
	c.PRFReady[3] = 10
	c.Wake(3, 10)
	c.Wake(5, 11)
	if len(c.woken) != 1 || c.woken[0] != live {
		t.Fatalf("woken %v, want only the live entry", c.woken)
	}
	for i, u := range squashed {
		if u.ReadyTime != before[i] || u.Pending != 0 {
			t.Errorf("Wake touched squashed seq %d: readyTime %d pending %d", u.Seq, u.ReadyTime, u.Pending)
		}
	}
	if live.ReadyTime != 10 || freeNodes(c) != 8 {
		t.Errorf("live readyTime %d, %d free nodes; want 10 and 8", live.ReadyTime, freeNodes(c))
	}
}

// TestWaiterPoolFullIQ pins the pool bound: a full scheduler whose
// entries each wait on two producers uses exactly 2×SchedulerSize
// nodes, the park/wake cycle allocates nothing, and one more waiting
// source than the bound admits panics instead of growing the pool.
func TestWaiterPoolFullIQ(t *testing.T) {
	const sched = 8
	c := schedCore(4, sched)
	slots := make([]*Uop[fakeInst], sched)
	for i := range slots {
		slots[i] = uop(uint64(i+1), 1, 2)
	}
	fill := func() {
		c.PRFReady[1], c.PRFReady[2] = FarFuture, FarFuture
		for _, u := range slots {
			u.Pending, u.ReadyTime, u.InIQ = 0, 0, false
			c.enterIQ(u)
		}
	}
	drain := func() {
		c.Wake(1, 4)
		c.Wake(2, 5)
		c.woken = c.woken[:0]
		c.IQAwake = c.IQAwake[:0]
		c.IQCount = 0
	}
	fill()
	if c.waitFree != -1 || listLen(t, c, 1) != sched || listLen(t, c, 2) != sched {
		t.Fatalf("full IQ: free head %d, lists %d and %d, want -1, %d, %d",
			c.waitFree, listLen(t, c, 1), listLen(t, c, 2), sched, sched)
	}
	drain()
	if freeNodes(c) != 2*sched {
		t.Fatalf("%d free nodes after the wakes, want %d", freeNodes(c), 2*sched)
	}
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		drain()
	})
	if allocs != 0 {
		t.Errorf("park/wake cycle allocates %.1f per run, want 0", allocs)
	}

	fill()
	c.PRFReady[3] = FarFuture
	defer func() {
		if recover() == nil {
			t.Error("parking past 2×SchedulerSize did not panic")
		}
	}()
	c.enterIQ(uop(sched+1, 3, -1))
}
