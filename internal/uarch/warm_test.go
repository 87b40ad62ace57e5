package uarch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// trainWarm feeds a WarmState a pseudo-random retire trace touching
// every replica structure.
func trainWarm(w *WarmState, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 20000; i++ {
		pc := uint32(r.Intn(1<<16)) &^ 3
		w.Inst(pc)
		switch r.Intn(5) {
		case 0:
			w.Data(uint32(r.Intn(1 << 22)))
		case 1:
			w.Branch(pc, r.Intn(2) == 0)
		case 2:
			w.Indirect(pc, uint32(r.Intn(1<<16))&^3)
		case 3:
			w.Call(pc + 4)
		case 4:
			w.Return()
		}
	}
	w.Call(0x1000) // the stack is non-empty whatever the trace left
}

// TestWarmStateCopyFrom: copying into a recycled snapshot that holds
// another state yields exactly what a fresh Clone does, for a gshare
// model (Dir warmed) and a TAGE model (Dir nil).
func TestWarmStateCopyFrom(t *testing.T) {
	tage := Straight4Way()
	tage.Predictor = PredTAGE
	for _, cfg := range []Config{SS4Way(), tage} {
		src := NewWarmState(cfg)
		trainWarm(src, 1)
		if (src.Dir == nil) != (cfg.Predictor == PredTAGE) {
			t.Fatalf("%s: Dir = %v for predictor %d", cfg.Name, src.Dir, cfg.Predictor)
		}
		other := NewWarmState(cfg)
		trainWarm(other, 2)
		snap := other.Clone() // a dirty snapshot: holds other's state
		snap.CopyFrom(src)
		if !reflect.DeepEqual(snap, src.Clone()) {
			t.Errorf("%s: CopyFrom into a dirty snapshot differs from Clone", cfg.Name)
		}
		if reflect.DeepEqual(snap, other.Clone()) {
			t.Errorf("%s: differently trained states compare equal; the test trains too little", cfg.Name)
		}
	}
}

// TestWarmStateReset: a trained warm state, reset, equals a new one,
// for a gshare model and a TAGE model. The sampler reuses a Target's
// fast-forward trainer this way across runs.
func TestWarmStateReset(t *testing.T) {
	tage := Straight4Way()
	tage.Predictor = PredTAGE
	for _, cfg := range []Config{SS4Way(), Straight2Way(), tage} {
		w := NewWarmState(cfg)
		trainWarm(w, 1)
		if reflect.DeepEqual(w, NewWarmState(cfg)) {
			t.Fatalf("%s: a trained state equals a new one; the test trains too little", cfg.Name)
		}
		w.Reset()
		if len(w.RAS.stack) != 0 {
			t.Fatalf("%s: Reset left %d RAS entries", cfg.Name, len(w.RAS.stack))
		}
		w.RAS.stack = nil // empty as a new stack is; Reset keeps its backing array
		if !reflect.DeepEqual(w, NewWarmState(cfg)) {
			t.Errorf("%s: a reset warm state differs from a new one", cfg.Name)
		}
	}
}

// TestWarmStateCopyFromGeometryMismatch: like the per-structure
// CopyFroms, a snapshot of another geometry is a bug and panics.
func TestWarmStateCopyFromGeometryMismatch(t *testing.T) {
	tage := SS4Way()
	tage.Predictor = PredTAGE
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom between a gshare and a TAGE snapshot did not panic")
		}
	}()
	NewWarmState(tage).CopyFrom(NewWarmState(SS4Way()))
}

// TestWarmInstSameLine: WarmState.Inst skips an instruction in the L1I
// line of the one before. That must leave the replica as touching it
// would: every level holds the same lines, each L1I set orders them
// alike, and the same accesses afterwards hit and miss alike. Only the
// L1I's hit count and the base of its LRU stamps differ.
func TestWarmInstSameLine(t *testing.T) {
	skip, full := NewWarmState(SS4Way()), NewWarmState(SS4Way())
	r := rand.New(rand.NewSource(3))
	pc := uint32(0x1000)
	for i := 0; i < 50000; i++ {
		// Mostly straight-line code with jumps, and data in between.
		if r.Intn(8) == 0 {
			pc = uint32(r.Intn(1<<18)) &^ 3
		} else {
			pc += 4
		}
		skip.Inst(pc)
		full.Hier.WarmInst(pc)
		if r.Intn(3) == 0 {
			a := uint32(r.Intn(1 << 22))
			skip.Data(a)
			full.Data(a)
		}
	}
	si, fi := skip.Hier.L1I, full.Hier.L1I
	if si.Hits >= fi.Hits {
		t.Fatalf("no instruction was skipped: %d hits vs %d", si.Hits, fi.Hits)
	}
	for _, lv := range []struct {
		name string
		a, b *Cache
	}{{"L1D", skip.Hier.L1D, full.Hier.L1D}, {"L2", skip.Hier.L2, full.Hier.L2}, {"L3", skip.Hier.L3, full.Hier.L3}} {
		if !reflect.DeepEqual(lv.a, lv.b) {
			t.Errorf("%s differs", lv.name)
		}
	}
	for s := 0; s < si.sets; s++ {
		lo, hi := s*si.ways, (s+1)*si.ways
		st, sl, ft, fl := si.tags[lo:hi], si.lru[lo:hi], fi.tags[lo:hi], fi.lru[lo:hi]
		if !reflect.DeepEqual(st, ft) || !reflect.DeepEqual(lruOrder(sl), lruOrder(fl)) {
			t.Fatalf("L1I set %d: tags %v lru %v, want tags %v lru %v", s, st, sl, ft, fl)
		}
	}
	h0, m0, fh0, fm0 := si.Hits, si.Misses, fi.Hits, fi.Misses
	for i := 0; i < 20000; i++ {
		a := uint32(r.Intn(1<<18)) &^ 3
		skip.Hier.WarmInst(a)
		full.Hier.WarmInst(a)
	}
	if si.Hits-h0 != fi.Hits-fh0 || si.Misses-m0 != fi.Misses-fm0 {
		t.Errorf("later fetches: %d hits %d misses, want %d and %d", si.Hits-h0, si.Misses-m0, fi.Hits-fh0, fi.Misses-fm0)
	}
}

// lruOrder ranks a set's ways from least to most recently used.
func lruOrder(stamps []uint32) []int {
	order := make([]int, len(stamps))
	for w := range order {
		order[w] = w
	}
	sort.Slice(order, func(i, j int) bool { return stamps[order[i]] < stamps[order[j]] })
	return order
}

// TestNewWarmStateAllocs bounds building a warm-state replica, which a
// sampled run does once per pooled snapshot: the cache levels are flat
// arrays, so the count does not grow with the number of sets.
func TestNewWarmStateAllocs(t *testing.T) {
	for _, cfg := range []Config{Straight4Way(), SS2Way(), SS4WayMemBound()} {
		if n := testing.AllocsPerRun(5, func() { NewWarmState(cfg) }); n > 20 {
			t.Errorf("%s: NewWarmState makes %.0f allocations, want <= 20", cfg.Name, n)
		}
	}
}
