package uarch

// Ring is a preallocated circular buffer used for the simulation kernel's
// FIFO-ish pipeline structures (ROB, fetch queue, free list). Unlike an
// append-and-reslice slice, the steady-state operations never allocate:
// PushBack/PopFront move head and length over a fixed power-of-two backing
// array, and element slots are stable while an element is resident (the
// buffer only grows when the occupancy exceeds every previous high-water
// mark, which the cores' structural size checks prevent after warmup).
//
//lint:hotpath
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// NewRing builds a ring with at least the given capacity.
func NewRing[T any](capacity int) *Ring[T] {
	r := &Ring[T]{}
	r.grow(capacity)
	return r
}

func (r *Ring[T]) grow(minCap int) {
	c := 8
	for c < minCap {
		c <<= 1
	}
	buf := make([]T, c) //lint:alloc amortized ring growth; rings are pre-sized and grow only past the high-water mark
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// Len returns the number of elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current backing capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// PushBack appends v at the tail.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n*2 + 1)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushBackSlot appends a zeroed element at the tail and returns a
// pointer to it, so a large element can be built in place instead of
// being assembled elsewhere and copied in. The pointer stays valid
// while the element is resident and no later push grows the ring.
func (r *Ring[T]) PushBackSlot() *T {
	if r.n == len(r.buf) {
		r.grow(r.n*2 + 1)
	}
	p := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	var zero T
	*p = zero
	r.n++
	return p
}

// PushFront prepends v at the head.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n*2 + 1)
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// PopFront removes and returns the head element. It panics on an empty
// ring (the cores guard every pop with an occupancy check). Returning
// the slot directly, with no local copy, lets an inlined call whose
// result is discarded drop the element copy entirely.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("uarch: PopFront on empty ring")
	}
	h := r.head
	r.head = (h + 1) & (len(r.buf) - 1)
	r.n--
	return r.buf[h]
}

// At returns the element i positions from the head (0 = head).
func (r *Ring[T]) At(i int) T { return *r.Slot(i) }

// Slot returns a pointer to the element i positions from the head
// (0 = head), for reading or updating a large element without copying
// it. Validity is as for PushBackSlot.
func (r *Ring[T]) Slot(i int) *T {
	if i < 0 || i >= r.n {
		panic("uarch: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Front returns the head element without removing it.
func (r *Ring[T]) Front() T { return r.At(0) }

// Truncate drops elements from the tail until n remain.
func (r *Ring[T]) Truncate(n int) {
	if n < 0 || n > r.n {
		panic("uarch: ring truncate out of range")
	}
	r.n = n
}

// Clear removes all elements (slots are not zeroed; residents of a
// cleared ring must not own pooled resources).
func (r *Ring[T]) Clear() {
	r.head = 0
	r.n = 0
}
