package uarch

// Reset methods: the batched-simulation reuse contract (DESIGN.md §12).
//
// Every stateful microarchitectural component can be returned to its
// power-on state in place, without reallocating its backing arrays. A
// core's Reset composes these so that a reused core is observably
// identical to a freshly constructed one — same Stats, same traces,
// same retire stream, bit for bit — while the µop arena, rings, cache
// arrays, and predictor tables keep their memory across runs.

// Reset invalidates every line and zeroes the hit/miss counters and the
// LRU clock, as if the cache had just been built.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	c.tick = 0
	c.Hits = 0
	c.Misses = 0
}

// Reset returns the whole memory system to power-on state: all levels
// cold, no in-flight misses, prefetch streams forgotten, counters zero.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	if h.L3 != nil {
		h.L3.Reset()
	}
	for i := range h.mshr {
		h.mshr[i] = 0
	}
	if h.prefetch != nil {
		h.prefetch.reset()
	}
	h.DemandFetches = 0
	h.DemandData = 0
	h.Prefetches = 0
}

func (s *streamPrefetcher) reset() {
	s.last = [8]uint32{}
	s.valid = [8]bool{}
	s.next = 0
}

// Reset invalidates every BTB entry and zeroes the counters.
func (b *BTB) Reset() {
	for i := range b.entries {
		b.entries[i] = btbEntry{}
	}
	b.Hits = 0
	b.Misses = 0
}

// Reset empties the return-address stack, keeping its backing array.
func (r *RAS) Reset() { r.stack = r.stack[:0] }

// Reset forgets all collision history and zeroes the counters.
func (m *MemDepPredictor) Reset() {
	for i := range m.table {
		m.table[i] = 0
	}
	m.Violations = 0
	m.Predictions = 0
	m.Conservative = 0
}

// Reset empties both queues. Slots are recycled in place (push fully
// overwrites a slot), so stale entries need no zeroing.
func (q *LSQ) Reset() {
	q.loads.head, q.loads.n = 0, 0
	q.stores.head, q.stores.n = 0, 0
}

// Reset implements DirPredictor: weakly-not-taken counters, empty
// history — the state NewGshare builds.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 1
	}
	g.history = 0
}

// Reset implements DirPredictor: the state NewTAGE builds, including the
// allocation-tiebreak RNG seed (runs after Reset are deterministic and
// identical to a fresh predictor).
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = 1
	}
	for i := range t.tables {
		tbl := t.tables[i]
		for j := range tbl {
			tbl[j] = tageEntry{}
		}
	}
	t.hist = tageHistory{}
	t.useAlt = 0
	t.rng = 0x9E3779B9
	t.metas = [tageMetaRing]tageMeta{}
	t.nextID = 0
	t.Allocations = 0
}

// Reset implements DirPredictor (the oracle keeps no state; OutcomeFn is
// configuration and survives).
func (o *Oracle) Reset() {}
