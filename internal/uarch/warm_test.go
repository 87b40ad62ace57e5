package uarch

import (
	"math/rand"
	"reflect"
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
