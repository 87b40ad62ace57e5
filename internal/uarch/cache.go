package uarch

// Set-associative cache hierarchy with LRU replacement and a simple
// next-line stream prefetcher on the data side (paper §V-A lists a
// "stream prefetcher for data caches").
//
// The timing model is latency-accumulating: an access pays each level's
// hit latency down to the level that hits (or memory), and all levels on
// the path are filled. A limited number of misses overlap (the MSHR
// count); when all miss registers are busy a new miss queues behind the
// earliest one to complete. Prefetch fills bypass the MSHRs (background
// fill bandwidth).

// Cache is one set-associative level.
type Cache struct {
	cfg   CacheConfig //lint:resetless geometry, fixed at construction
	sets  int         //lint:resetless geometry, fixed at construction
	ways  int         //lint:resetless geometry, fixed at construction
	shift uint        //lint:resetless line offset bits, fixed at construction
	// tags and lru hold sets×ways entries, set-major: way w of set s is
	// element s*ways+w. A tag is stored +1, so 0 marks an invalid way;
	// a larger lru stamp is more recent.
	tags []uint64
	lru  []uint32
	tick uint32

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache level.
func NewCache(cfg CacheConfig) *Cache {
	c := newCache(cfg)
	return &c
}

func newCache(cfg CacheConfig) Cache {
	line := cfg.LineBytes
	sets := cfg.SizeBytes / (line * cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < line {
		shift++
	}
	return Cache{
		cfg: cfg, sets: sets, ways: cfg.Ways, shift: shift,
		tags: make([]uint64, sets*cfg.Ways),
		lru:  make([]uint32, sets*cfg.Ways),
	}
}

// index returns the offset of addr's set in tags/lru and its tag.
func (c *Cache) index(addr uint32) (base int, tag uint64) {
	line := uint64(addr) >> c.shift
	return int(line%uint64(c.sets)) * c.ways, line + 1
}

// Lookup probes the cache; on hit it refreshes LRU.
func (c *Cache) Lookup(addr uint32) bool {
	base, tag := c.index(addr)
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.tick++
			c.lru[base+w] = c.tick
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs the line, evicting LRU.
func (c *Cache) Fill(addr uint32) {
	base, tag := c.index(addr)
	tags, lru := c.tags[base:base+c.ways], c.lru[base:base+c.ways]
	victim := 0
	for w, t := range tags {
		if t == tag {
			return // already present
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	c.tick++
	tags[victim] = tag
	lru[victim] = c.tick
}

// Probe checks presence without updating LRU or stats.
func (c *Cache) Probe(addr uint32) bool {
	base, tag := c.index(addr)
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// HitLatency returns the level's hit latency.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Hierarchy is the full memory system: L1I + L1D front, shared L2
// (and optional L3), and main memory latency.
//
//lint:hotpath
type Hierarchy struct {
	L1I    *Cache
	L1D    *Cache
	L2     *Cache
	L3     *Cache // may be nil
	memLat int    //lint:resetless latency configuration, fixed at construction

	// levels holds the caches L1I..L3 point at, so a hierarchy's
	// level structs take one allocation.
	levels [4]Cache //lint:resetless backing store of L1I..L3, reset through them

	prefetch *streamPrefetcher
	// mshr holds the completion cycle of each in-flight data miss.
	mshr []int64

	// DemandFetches counts instruction-side accesses; DemandData counts
	// data-side (for power accounting).
	DemandFetches uint64
	DemandData    uint64
	Prefetches    uint64
}

// NewHierarchy builds the memory system from a model config.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{memLat: cfg.MemLatency}
	h.levels[0], h.levels[1], h.levels[2] = newCache(cfg.L1I), newCache(cfg.L1D), newCache(cfg.L2)
	h.L1I, h.L1D, h.L2 = &h.levels[0], &h.levels[1], &h.levels[2]
	if cfg.L3 != nil {
		h.levels[3] = newCache(*cfg.L3)
		h.L3 = &h.levels[3]
	}
	if !cfg.NoPrefetch {
		h.prefetch = newStreamPrefetcher(cfg.L1D.LineBytes)
	}
	n := cfg.MSHRs
	if n == 0 {
		n = 8
	}
	h.mshr = make([]int64, n)
	return h
}

// mshrDelay allocates a miss register at time now, returning the queuing
// delay before the miss can start.
func (h *Hierarchy) mshrDelay(now int64) (slot int, delay int64) {
	best := 0
	for i, busy := range h.mshr {
		if busy <= now {
			return i, 0
		}
		if busy < h.mshr[best] {
			best = i
		}
	}
	return best, h.mshr[best] - now
}

// beyondL1 accumulates the latency of servicing a miss below L1 and fills
// the levels on the path.
func (h *Hierarchy) beyondL1(addr uint32) int {
	lat := h.L2.HitLatency()
	if h.L2.Lookup(addr) {
		return lat
	}
	if h.L3 != nil {
		lat += h.L3.HitLatency()
		if h.L3.Lookup(addr) {
			h.L2.Fill(addr)
			return lat
		}
		h.L3.Fill(addr)
	}
	lat += h.memLat
	h.L2.Fill(addr)
	return lat
}

// AccessInst returns the latency of an instruction fetch at addr
// starting at cycle now.
func (h *Hierarchy) AccessInst(now int64, addr uint32) int {
	h.DemandFetches++
	lat := h.L1I.HitLatency()
	if h.L1I.Lookup(addr) {
		return lat
	}
	slot, delay := h.mshrDelay(now)
	lat += int(delay) + h.beyondL1(addr)
	h.mshr[slot] = now + int64(lat)
	h.L1I.Fill(addr)
	return lat
}

// AccessData returns the latency of a data access at addr (load or
// store-at-commit fill) starting at cycle now. The stream prefetcher
// trains on L1D misses and pulls subsequent lines into L1D.
func (h *Hierarchy) AccessData(now int64, addr uint32) int {
	h.DemandData++
	lat := h.L1D.HitLatency()
	if h.L1D.Lookup(addr) {
		return lat
	}
	slot, delay := h.mshrDelay(now)
	lat += int(delay) + h.beyondL1(addr)
	h.mshr[slot] = now + int64(lat)
	h.L1D.Fill(addr)
	if h.prefetch == nil {
		return lat
	}
	pf, n := h.prefetch.onMiss(addr)
	for i := 0; i < n; i++ {
		h.Prefetches++
		// Prefetches are charged no demand latency: they fill L1D (and
		// L2 on the way) in the background.
		if !h.L1D.Probe(pf[i]) {
			h.L2.Fill(pf[i])
			h.L1D.Fill(pf[i])
		}
	}
	return lat
}

// WouldHitL1D reports whether a data access would hit L1D right now,
// without changing any state — the cores' cache-hit predictor uses this
// as a "perfect" hit predictor input and the schedulers replay on
// mispredicted hits.
func (h *Hierarchy) WouldHitL1D(addr uint32) bool { return h.L1D.Probe(addr) }

// streamPrefetcher detects up to 8 concurrent ascending streams and
// prefetches the next two lines on a detected stream.
type streamPrefetcher struct {
	lineBytes uint32 //lint:resetless geometry, fixed at construction
	last      [8]uint32
	valid     [8]bool
	next      int
}

func newStreamPrefetcher(lineBytes int) *streamPrefetcher {
	return &streamPrefetcher{lineBytes: uint32(lineBytes)}
}

// onMiss returns the lines to prefetch in a fixed-size array (no slice is
// allocated on the per-miss path).
func (s *streamPrefetcher) onMiss(addr uint32) (pf [2]uint32, n int) {
	line := addr &^ (s.lineBytes - 1)
	for i := range s.last {
		if s.valid[i] && line == s.last[i]+s.lineBytes {
			// Ascending stream confirmed: prefetch the next two lines.
			s.last[i] = line
			return [2]uint32{line + s.lineBytes, line + 2*s.lineBytes}, 2
		}
	}
	s.last[s.next] = line
	s.valid[s.next] = true
	s.next = (s.next + 1) % len(s.last)
	return pf, 0
}
