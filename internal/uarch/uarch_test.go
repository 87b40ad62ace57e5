package uarch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 3})
	if c.Lookup(0x1000) {
		t.Error("cold miss expected")
	}
	c.Fill(0x1000)
	if !c.Lookup(0x1000) {
		t.Error("hit after fill expected")
	}
	if !c.Lookup(0x1020) {
		t.Error("same line must hit")
	}
	if c.Lookup(0x1040) {
		t.Error("next line must miss")
	}
	if c.HitLatency() != 3 || c.LineBytes() != 64 {
		t.Error("config accessors")
	}
}

// TestCheckCaches pins which cache geometries Config.Check lets a
// config carry into simulation: every Table I model and the membound
// variants pass, and a non-positive or oversized field, or a level of
// more than 2^24 lines, fails with the level and field named.
func TestCheckCaches(t *testing.T) {
	for _, cfg := range []Config{SS2Way(), Straight4Way(), CG4Way(), SS4WayMemBound()} {
		if err := cfg.Check(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	tiny := SS2Way()
	tiny.L1D.SizeBytes = 64 // smaller than one set of 4 ways: clamped, not rejected
	if err := tiny.Check(); err != nil {
		t.Errorf("sub-set L1D: %v", err)
	}
	for _, tc := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.L1D.Ways = 0 }, "uarch: L1D cache Ways = 0, want 1..65536"},
		{func(c *Config) { c.L1I.LineBytes = -64 }, "uarch: L1I cache LineBytes = -64, want 1..65536"},
		{func(c *Config) { c.L2.SizeBytes = 0 }, "uarch: L2 cache SizeBytes = 0, want 1..1073741824"},
		{func(c *Config) { c.L3.SizeBytes = 1 << 40 }, "uarch: L3 cache SizeBytes = 1099511627776, want 1..1073741824"},
		{func(c *Config) { c.L3.SizeBytes, c.L3.LineBytes = 32<<20, 1 }, "uarch: L3 cache SizeBytes = 33554432, want 1..16777216"},
		{func(c *Config) { c.L2.Ways = 1 << 20 }, "uarch: L2 cache Ways = 1048576, want 1..65536"},
	} {
		cfg := SS4Way()
		l3 := *cfg.L3
		cfg.L3 = &l3
		tc.edit(&cfg)
		if err := cfg.Check(); err == nil || err.Error() != tc.want {
			t.Errorf("got %v, want %q", err, tc.want)
		}
	}
}

// TestConfigCheck pins Config.Check's core fields: every model the
// experiments and the kernel benchmarks build passes, 0 stays legal
// where it means a default, and a size or width that would deadlock a
// core (0), fail its construction (negative) or allocate without bound
// fails with the field named.
func TestConfigCheck(t *testing.T) {
	for _, cfg := range []Config{SS2Way(), SS4Way(), Straight2Way(), Straight4Way(), CG2Way(), CG4Way(),
		SS4WayMemBound(), Straight4WayMemBound(), CG4WayMemBound()} {
		if err := cfg.Check(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	defaults := SS2Way()
	defaults.MSHRs, defaults.CGBlockSize, defaults.MaxDistance = 0, 0, 0
	defaults.ALULatency, defaults.MulLatency, defaults.DivLatency = 0, 0, 0
	if err := defaults.Check(); err != nil {
		t.Errorf("0 defaults: %v", err)
	}
	for _, tc := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.SchedulerSize = -1 }, "uarch: SchedulerSize = -1, want 1..65536"},
		{func(c *Config) { c.ROBSize = 0 }, "uarch: ROBSize = 0, want 1..65536"},
		{func(c *Config) { c.FetchWidth = 0 }, "uarch: FetchWidth = 0, want 1..256"},
		{func(c *Config) { c.ROBSize = 1 << 30 }, "uarch: ROBSize = 1073741824, want 1..65536"},
		{func(c *Config) { c.RegFileSize = 32 }, "uarch: RegFileSize = 32, want 33..65536"},
		{func(c *Config) { c.LQSize = 0 }, "uarch: LQSize = 0, want 1..65536"},
		{func(c *Config) { c.NumDiv = 0 }, "uarch: NumDiv = 0, want 1..256"},
		{func(c *Config) { c.CommitWidth = 0 }, "uarch: CommitWidth = 0, want 1..256"},
		{func(c *Config) { c.FrontEndLatency = -1 }, "uarch: FrontEndLatency = -1, want 0..256"},
		{func(c *Config) { c.GshareEntries = 0 }, "uarch: GshareEntries = 0, want 1..1048576"},
		{func(c *Config) { c.BTBEntries = 1 << 30 }, "uarch: BTBEntries = 1073741824, want 1..1048576"},
		{func(c *Config) { c.RASEntries = 0 }, "uarch: RASEntries = 0, want 1..65536"},
		{func(c *Config) { c.MSHRs = -1 }, "uarch: MSHRs = -1, want 0..256"},
		{func(c *Config) { c.SPAddPerGroup = 0 }, "uarch: SPAddPerGroup = 0, want 1..256"},
		{func(c *Config) { c.MaxDistance = -31 }, "uarch: MaxDistance = -31, want 0..65536"},
		{func(c *Config) { c.DivLatency = 1 << 20 }, "uarch: DivLatency = 1048576, want 0..65536"},
		{func(c *Config) { c.Predictor = 7 }, "uarch: Predictor = 7, want 0..2"},
		{func(c *Config) { c.L1D.HitLatency = -4 }, "uarch: L1D cache HitLatency = -4, want 0..65536"},
	} {
		cfg := Straight4Way()
		tc.edit(&cfg)
		if err := cfg.Check(); err == nil || err.Error() != tc.want {
			t.Errorf("got %v, want %q", err, tc.want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 8 sets of 64B lines: three lines mapping to the same set.
	c := NewCache(CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 1})
	sets := 1024 / (64 * 2)
	a := uint32(0)
	b := uint32(sets * 64)
	d := uint32(2 * sets * 64)
	c.Fill(a)
	c.Fill(b)
	c.Lookup(a) // a most recent
	c.Fill(d)   // evicts b
	if !c.Probe(a) {
		t.Error("a should survive")
	}
	if c.Probe(b) {
		t.Error("b should be evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Error("d should be present")
	}
}

// TestCacheCoherentWithOracle: random fills/lookups never report a hit for
// a line never filled and never panic (property test).
func TestCacheCoherentWithOracle(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 4096, Ways: 4, LineBytes: 64, HitLatency: 1})
	filled := make(map[uint32]bool)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		addr := uint32(r.Intn(1 << 20))
		line := addr &^ 63
		if r.Intn(2) == 0 {
			c.Fill(addr)
			filled[line] = true
		} else if c.Lookup(addr) && !filled[line] {
			t.Fatalf("phantom hit at %#x", addr)
		}
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := SS4Way()
	h := NewHierarchy(cfg)
	// Cold data access: L1 + L2 + L3 + memory.
	want := cfg.L1D.HitLatency + cfg.L2.HitLatency + cfg.L3.HitLatency + cfg.MemLatency
	if got := h.AccessData(0, 0x10000); got != want {
		t.Errorf("cold access latency %d, want %d", got, want)
	}
	// Now hot in L1 (probe later so the MSHR has drained).
	if got := h.AccessData(1000, 0x10000); got != cfg.L1D.HitLatency {
		t.Errorf("hot access latency %d, want %d", got, cfg.L1D.HitLatency)
	}
	if !h.WouldHitL1D(0x10000) || h.WouldHitL1D(0x999000) {
		t.Error("WouldHitL1D")
	}
}

func TestStreamPrefetcher(t *testing.T) {
	cfg := SS2Way()
	h := NewHierarchy(cfg)
	// Sequential misses establish a stream; later lines should be
	// prefetched into L1D.
	h.AccessData(0, 0x40000)
	h.AccessData(1000, 0x40040) // stream detected: prefetches 0x40080, 0x400C0
	if h.Prefetches == 0 {
		t.Fatal("stream prefetcher did not trigger")
	}
	if got := h.AccessData(2000, 0x40080); got != cfg.L1D.HitLatency {
		t.Errorf("prefetched line should hit L1D, latency %d", got)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g := NewGshare(10, 1<<15)
	pc := uint32(0x1000)
	// Alternating pattern: with history, gshare should learn it well.
	correct := 0
	for i := 0; i < 2000; i++ {
		actual := i%2 == 0
		pred, meta := g.Predict(pc)
		if pred == actual {
			correct++
		} else {
			g.Recover(meta, actual)
		}
		g.Update(pc, actual, meta)
	}
	if correct < 1800 {
		t.Errorf("gshare learned alternation poorly: %d/2000", correct)
	}
}

func TestTAGELearnsLongPattern(t *testing.T) {
	tg := NewTAGE()
	pc := uint32(0x2000)
	// Period-7 pattern is hard for a 2-bit bimodal but easy for TAGE.
	pattern := []bool{true, true, false, true, false, false, true}
	correct := 0
	total := 7000
	for i := 0; i < total; i++ {
		actual := pattern[i%len(pattern)]
		pred, meta := tg.Predict(pc)
		if pred == actual {
			correct++
		} else {
			tg.Recover(meta, actual)
		}
		tg.Update(pc, actual, meta)
	}
	frac := float64(correct) / float64(total)
	t.Logf("TAGE accuracy on period-7: %.3f (allocations %d)", frac, tg.Allocations)
	if frac < 0.90 {
		t.Errorf("TAGE accuracy %.3f too low for periodic pattern", frac)
	}
}

func TestTAGEBeatsBimodalOnCorrelated(t *testing.T) {
	// Branch outcome equals outcome 3 branches ago — pure history
	// correlation, invisible to the bimodal base.
	tg := NewTAGE()
	r := rand.New(rand.NewSource(7))
	hist := []bool{true, false, true}
	pc := uint32(0x3000)
	correct := 0
	total := 20000
	for i := 0; i < total; i++ {
		actual := hist[len(hist)-3]
		pred, meta := tg.Predict(pc)
		if pred == actual {
			correct++
		} else {
			tg.Recover(meta, actual)
		}
		tg.Update(pc, actual, meta)
		hist = append(hist, r.Intn(2) == 0)
		_ = hist
		hist[len(hist)-1] = actual // keep the defined correlation
	}
	frac := float64(correct) / float64(total)
	t.Logf("TAGE accuracy on correlated: %.3f", frac)
	if frac < 0.95 {
		t.Errorf("TAGE should nail 3-back correlation, got %.3f", frac)
	}
}

func TestTAGERecoverRestoresHistory(t *testing.T) {
	tg := NewTAGE()
	before := tg.hist
	_, meta := tg.Predict(0x4000)
	tg.Recover(meta, true)
	var want tageHistory
	want = before
	want.push(true)
	if tg.hist != want {
		t.Error("Recover must rebuild history from the checkpoint")
	}
}

func TestBTBAndRAS(t *testing.T) {
	b := NewBTB(256)
	if _, ok := b.Lookup(0x100); ok {
		t.Error("cold BTB hit")
	}
	b.Insert(0x100, 0x2000)
	if tgt, ok := b.Lookup(0x100); !ok || tgt != 0x2000 {
		t.Error("BTB miss after insert")
	}
	// Aliasing entry replaces.
	b.Insert(0x100+256*4, 0x3000)
	if _, ok := b.Lookup(0x100); ok {
		t.Error("conflicting tag should miss")
	}

	r := NewRAS(4)
	r.Push(1)
	r.Push(2)
	snap := r.Snapshot()
	r.Push(3)
	if v, _ := r.Pop(); v != 3 {
		t.Error("RAS pop order")
	}
	r.Restore(snap)
	if v, _ := r.Pop(); v != 2 {
		t.Error("RAS restore")
	}
	// Overflow drops the oldest.
	r2 := NewRAS(2)
	r2.Push(1)
	r2.Push(2)
	r2.Push(3)
	if v, _ := r2.Pop(); v != 3 {
		t.Error("RAS overflow keeps newest")
	}
	if v, _ := r2.Pop(); v != 2 {
		t.Error("RAS overflow keeps second")
	}
	if _, ok := r2.Pop(); ok {
		t.Error("RAS should be empty (oldest entry was dropped on overflow)")
	}
}

func TestLSQForwardingAndViolations(t *testing.T) {
	q := NewLSQ(8, 8)
	st := &UOp{Seq: 1, IsStore: true}
	ld := &UOp{Seq: 2, IsLoad: true}
	se := q.Allocate(st)
	le := q.Allocate(ld)

	// Load with older unknown store address: must wait unless speculating.
	le.Addr, le.Size, le.AddrReady = 0x100, 4, true
	if res, _ := q.LookupLoad(le, false); res != LoadMustWait {
		t.Error("conservative load must wait for unknown store address")
	}
	if res, _ := q.LookupLoad(le, true); res != LoadFromMemory {
		t.Error("speculative load should bypass unknown store")
	}
	le.Executed = true

	// Store resolves to the same address: violation on the younger load.
	se.Addr, se.Size, se.AddrReady = 0x100, 4, true
	se.Data, se.DataReady = 0xABCD, true
	if v := q.OldestViolation(se); v != le {
		t.Fatalf("expected violation on the load, got %v", v)
	}

	// After re-execution the load forwards.
	le.Executed = false
	if res, v := q.LookupLoad(le, true); res != LoadForwarded || v != 0xABCD {
		t.Errorf("forwarding failed: %v %#x", res, v)
	}

	// Sub-word containment forwarding: byte 1 of 0x0000ABCD is 0xAB.
	le.Addr, le.Size = 0x101, 1
	if res, v := q.LookupLoad(le, true); res != LoadForwarded || v != 0xAB {
		t.Errorf("byte extract failed: %v %#x", res, v)
	}
	// Partial overlap must wait.
	le.Addr, le.Size = 0x102, 4
	if res, _ := q.LookupLoad(le, true); res != LoadMustWait {
		t.Error("partial overlap must wait")
	}
}

func TestLSQSquashAndRetire(t *testing.T) {
	q := NewLSQ(4, 4)
	u1 := &UOp{Seq: 1, IsLoad: true}
	u2 := &UOp{Seq: 2, IsStore: true}
	u3 := &UOp{Seq: 3, IsLoad: true}
	q.Allocate(u1)
	q.Allocate(u2)
	q.Allocate(u3)
	q.SquashYounger(2)
	l, s := q.Occupancy()
	if l != 1 || s != 1 {
		t.Errorf("after squash: %d loads %d stores", l, s)
	}
	q.Retire(u1)
	q.Retire(u2)
	l, s = q.Occupancy()
	if l != 0 || s != 0 {
		t.Errorf("after retire: %d loads %d stores", l, s)
	}
	if !q.CanAllocate(true) || !q.CanAllocate(false) {
		t.Error("queues should have room")
	}
}

func TestMemDepPredictorTrains(t *testing.T) {
	m := NewMemDepPredictor(256)
	pc := uint32(0x500)
	if m.ShouldWait(pc) {
		t.Error("cold predictor should speculate")
	}
	m.RecordViolation(pc)
	if !m.ShouldWait(pc) {
		t.Error("after violation the load must wait")
	}
	for i := 0; i < 4; i++ {
		m.RecordSuccess(pc)
	}
	if m.ShouldWait(pc) {
		t.Error("conservatism should decay after successes")
	}
}

func TestConfigTableI(t *testing.T) {
	ss4, st4 := SS4Way(), Straight4Way()
	if ss4.ROBSize != 224 || ss4.SchedulerSize != 96 || ss4.RegFileSize != 256 {
		t.Error("SS4Way parameters do not match Table I")
	}
	if ss4.FrontEndLatency != 8 || st4.FrontEndLatency != 6 {
		t.Error("front-end latencies must be 8 (SS) and 6 (STRAIGHT)")
	}
	if st4.MaxRP() != 255 {
		t.Errorf("4-way MAX_RP = %d, want 255 (31+224)", st4.MaxRP())
	}
	st2 := Straight2Way()
	if st2.MaxRP() != 95 {
		t.Errorf("2-way MAX_RP = %d, want 95 (31+64)", st2.MaxRP())
	}
	if SS2Way().L3 != nil || ss4.L3 == nil {
		t.Error("L3 present only in 4-way models")
	}
	if ss4.LatencyFor(ClassMul) != 3 || ss4.LatencyFor(ClassALU) != 1 {
		t.Error("default FU latencies")
	}
}

// TestLSQOverlapProperty: forwarding never returns bytes that differ from
// a reference byte-array model.
func TestLSQOverlapProperty(t *testing.T) {
	f := func(storeAddr8, loadAddr8, storeSize2, loadSize2 uint8, data uint32) bool {
		sa := uint32(storeAddr8 % 64)
		la := uint32(loadAddr8 % 64)
		ss := uint8(1 << (storeSize2 % 3)) // 1,2,4
		ls := uint8(1 << (loadSize2 % 3))
		q := NewLSQ(4, 4)
		st := &UOp{Seq: 1, IsStore: true}
		ld := &UOp{Seq: 2, IsLoad: true}
		se := q.Allocate(st)
		le := q.Allocate(ld)
		se.Addr, se.Size, se.AddrReady = sa, ss, true
		se.Data, se.DataReady = data, true
		le.Addr, le.Size, le.AddrReady = la, ls, true
		res, v := q.LookupLoad(le, true)
		if res != LoadForwarded {
			return true // waiting or memory are always safe
		}
		// Reference: byte array.
		var mem [128]byte
		for i := uint8(0); i < ss; i++ {
			mem[sa+uint32(i)] = byte(data >> (8 * i))
		}
		var want uint32
		for i := uint8(0); i < ls; i++ {
			want |= uint32(mem[la+uint32(i)]) << (8 * i)
		}
		return v == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRQueueing(t *testing.T) {
	cfg := SS2Way()
	cfg.MSHRs = 1
	h := NewHierarchy(cfg)
	first := h.AccessData(0, 0x100000)
	// Second concurrent miss to a different line must queue behind the
	// only miss register.
	second := h.AccessData(0, 0x200000)
	if second <= first {
		t.Errorf("second miss (%d) should queue behind the first (%d)", second, first)
	}
	// After the first drains, a new miss pays only its own latency.
	third := h.AccessData(int64(first+second), 0x300000)
	if third > second {
		t.Errorf("drained MSHR should not queue: %d vs %d", third, second)
	}
}

func TestRingFIFOAndGrowth(t *testing.T) {
	r := NewRing[int](2)
	// Push past the initial capacity across a wrapped head so growth
	// must relinearize the buffer.
	r.PushBack(1)
	r.PushBack(2)
	if r.PopFront() != 1 {
		t.Fatal("FIFO order")
	}
	for v := 3; v <= 9; v++ {
		r.PushBack(v)
	}
	if r.Len() != 8 {
		t.Fatalf("len = %d, want 8", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if r.At(i) != i+2 {
			t.Fatalf("At(%d) = %d, want %d", i, r.At(i), i+2)
		}
	}
	if r.Front() != 2 {
		t.Fatal("Front")
	}

	// PushFront prepends (the SS recovery walk re-frees registers
	// tail-first with it).
	r.PushFront(1)
	if r.Front() != 1 || r.Len() != 9 {
		t.Fatal("PushFront")
	}

	// Truncate drops from the tail, keeping the oldest n.
	r.Truncate(3)
	if r.Len() != 3 || r.At(2) != 3 {
		t.Fatalf("Truncate: len=%d tail=%d", r.Len(), r.At(2))
	}

	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PopFront on empty ring should panic")
		}
	}()
	r.PopFront()
}
