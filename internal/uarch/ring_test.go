package uarch

import "testing"

// ringOp is one step of a table-driven ring scenario.
type ringOp struct {
	op   string // "pushBack", "pushFront", "popFront", "truncate", "clear"
	v    int    // value pushed, expected pop result, or truncate length
	want []int  // expected head-to-tail contents after the op
}

func checkRing(t *testing.T, r *Ring[int], step int, want []int) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("step %d: Len=%d, want %d", step, r.Len(), len(want))
	}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("step %d: At(%d)=%d, want %d", step, i, got, w)
		}
	}
	if len(want) > 0 && r.Front() != want[0] {
		t.Fatalf("step %d: Front()=%d, want %d", step, r.Front(), want[0])
	}
}

// TestRingScenarios drives the ring through the access patterns the
// cores rely on: FIFO flow with head wraparound (fetch queue), PushFront
// after PopFront (the recovery walk returning physicals to the free
// list in reverse), truncation (ROB squash), and clearing.
func TestRingScenarios(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		ops  []ringOp
	}{
		{
			name: "fifo wraparound",
			cap:  4, // rounds up to 8; 12 pushes with interleaved pops wrap the head
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "popFront", v: 1, want: []int{2}},
				{op: "pushBack", v: 3, want: []int{2, 3}},
				{op: "pushBack", v: 4, want: []int{2, 3, 4}},
				{op: "pushBack", v: 5, want: []int{2, 3, 4, 5}},
				{op: "pushBack", v: 6, want: []int{2, 3, 4, 5, 6}},
				{op: "pushBack", v: 7, want: []int{2, 3, 4, 5, 6, 7}},
				{op: "pushBack", v: 8, want: []int{2, 3, 4, 5, 6, 7, 8}},
				{op: "popFront", v: 2, want: []int{3, 4, 5, 6, 7, 8}},
				{op: "popFront", v: 3, want: []int{4, 5, 6, 7, 8}},
				{op: "pushBack", v: 9, want: []int{4, 5, 6, 7, 8, 9}},
				{op: "pushBack", v: 10, want: []int{4, 5, 6, 7, 8, 9, 10}},
				{op: "pushBack", v: 11, want: []int{4, 5, 6, 7, 8, 9, 10, 11}},
				{op: "popFront", v: 4, want: []int{5, 6, 7, 8, 9, 10, 11}},
			},
		},
		{
			name: "pushFront reverses like the recovery walk",
			cap:  8,
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "popFront", v: 1, want: []int{2}},
				{op: "popFront", v: 2, want: []int{}},
				// A walk frees the youngest first; PushFront restores the
				// original allocation order at the head.
				{op: "pushFront", v: 2, want: []int{2}},
				{op: "pushFront", v: 1, want: []int{1, 2}},
				{op: "popFront", v: 1, want: []int{2}},
			},
		},
		{
			name: "pushFront wraps below index zero",
			cap:  8,
			ops: []ringOp{
				// head starts at 0; PushFront must wrap to the top slot.
				{op: "pushFront", v: 9, want: []int{9}},
				{op: "pushFront", v: 8, want: []int{8, 9}},
				{op: "pushBack", v: 10, want: []int{8, 9, 10}},
				{op: "popFront", v: 8, want: []int{9, 10}},
			},
		},
		{
			name: "truncate drops the tail",
			cap:  8,
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "pushBack", v: 3, want: []int{1, 2, 3}},
				{op: "truncate", v: 1, want: []int{1}},
				{op: "pushBack", v: 4, want: []int{1, 4}},
				{op: "truncate", v: 0, want: []int{}},
				{op: "pushBack", v: 5, want: []int{5}},
			},
		},
		{
			name: "clear then reuse",
			cap:  8,
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "clear", want: []int{}},
				{op: "pushBack", v: 3, want: []int{3}},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.cap)
			for i, op := range tc.ops {
				switch op.op {
				case "pushBack":
					r.PushBack(op.v)
				case "pushFront":
					r.PushFront(op.v)
				case "popFront":
					if got := r.PopFront(); got != op.v {
						t.Fatalf("step %d: PopFront=%d, want %d", i, got, op.v)
					}
				case "truncate":
					r.Truncate(op.v)
				case "clear":
					r.Clear()
				}
				checkRing(t, r, i, op.want)
			}
		})
	}
}

// TestRingGrowthPreservesOrder overflows a wrapped ring and checks the
// relocation kept head-to-tail order (the only allocating path; the
// cores pre-size rings so it never runs after warmup).
func TestRingGrowthPreservesOrder(t *testing.T) {
	r := NewRing[int](8)
	// Wrap the head first so growth must unwrap a split occupancy.
	for i := 0; i < 6; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 6; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("warmup pop %d: got %d", i, got)
		}
	}
	for i := 0; i < 20; i++ { // overflows capacity 8 mid-stream
		r.PushBack(100 + i)
	}
	if r.Cap() < 20 {
		t.Fatalf("Cap=%d after 20 pushes", r.Cap())
	}
	for i := 0; i < 20; i++ {
		if got := r.PopFront(); got != 100+i {
			t.Fatalf("pop %d: got %d, want %d", i, got, 100+i)
		}
	}
}

// TestRingSteadyStateDoesNotAllocate pins the ring's core contract: once
// occupancy stays at or below the high-water mark, push/pop traffic
// allocates nothing.
func TestRingSteadyStateDoesNotAllocate(t *testing.T) {
	r := NewRing[int](16)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			r.PushBack(i)
		}
		for i := 0; i < 16; i++ {
			r.PopFront()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ring traffic allocates %.1f per run, want 0", allocs)
	}
}

// TestRingPanics pins the guard rails the cores rely on (every pop is
// occupancy-checked, so a panic here means a core bug, not input).
func TestRingPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRing[int](4)
	expectPanic("PopFront empty", func() { r.PopFront() })
	expectPanic("At out of range", func() { r.At(0) })
	expectPanic("Slot on empty", func() { r.Slot(0) })
	expectPanic("Slot negative", func() { r.Slot(-1) })
	expectPanic("Truncate negative", func() { r.Truncate(-1) })
	r.PushBack(1)
	expectPanic("Truncate past len", func() { r.Truncate(2) })
	expectPanic("At past len", func() { r.At(1) })
	expectPanic("Slot past len", func() { r.Slot(1) })
}

// feSlot stands in for the fetch queue's entry type: a value field plus
// a pooled RAS snapshot the previous occupant may have left behind.
type feSlot struct {
	PC      uint32
	RASSnap []uint32
}

// TestRingPushBackSlotZeroesRecycledSlot pins the in-place build
// contract: a slot handed out by PushBackSlot is zeroed even when its
// previous occupant (popped, never cleared) still held a RAS snapshot,
// so a fetch entry built in place never inherits a stale snapshot.
func TestRingPushBackSlotZeroesRecycledSlot(t *testing.T) {
	r := NewRing[feSlot](8)
	for i := 0; i < 3*r.Cap(); i++ { // every slot recycled twice
		e := r.PushBackSlot()
		if e.PC != 0 || e.RASSnap != nil {
			t.Fatalf("push %d: recycled slot reads %+v, want zero", i, *e)
		}
		e.PC = uint32(i)
		e.RASSnap = []uint32{uint32(i)}
		if got := r.Front(); got.PC != uint32(i) || len(got.RASSnap) != 1 {
			t.Fatalf("push %d: Front()=%+v, want the entry built in place", i, got)
		}
		r.PopFront()
	}
}

// TestRingSlotStableAcrossWraparound checks that a resident element's
// slot pointer stays valid, and keeps matching Slot, while the head
// wraps around the backing array below the high-water mark.
func TestRingSlotStableAcrossWraparound(t *testing.T) {
	r := NewRing[feSlot](8)
	for i := 0; i < 6; i++ {
		r.PushBackSlot().PC = uint32(i)
	}
	for i := 0; i < 5; i++ { // head at 5; the last element stays resident
		r.PopFront()
	}
	held := r.Slot(0)
	for i := 6; i < 13; i++ { // tail wraps past the end of the array
		r.PushBackSlot().PC = uint32(i)
	}
	if r.Cap() != 8 {
		t.Fatalf("ring grew to %d; the test needs a fixed array", r.Cap())
	}
	if held.PC != 5 || r.Slot(0) != held {
		t.Fatalf("held slot reads PC=%d (same=%v), want PC=5 at Slot(0)", held.PC, r.Slot(0) == held)
	}
	for i := 0; i < r.Len(); i++ {
		p := r.Slot(i)
		if p.PC != uint32(5+i) {
			t.Fatalf("Slot(%d).PC=%d, want %d", i, p.PC, 5+i)
		}
		p.PC += 100 // writes through the slot are what At reads back
		if got := r.At(i).PC; got != uint32(105+i) {
			t.Fatalf("At(%d).PC=%d after a write through Slot, want %d", i, got, 105+i)
		}
	}
}
