package bench

import (
	"reflect"
	"testing"

	"straight/internal/uarch"
	"straight/internal/workloads"
)

// poolMix is one pass of a golden mix over seven (machine,
// configuration) pairs, each once, so a pass's core demand per pair is
// one whatever the worker count. Each pair runs workload ws[(i+shift)%2]:
// shifting by one between passes moves every pooled core onto the other
// image. Every config is built anew, so equal configurations have
// distinct L3 pointers.
func poolMix(shift int) []SweepPoint {
	ws := [2]workloads.Workload{workloads.MicroFib, workloads.MicroBranch}
	iters := func(w workloads.Workload) int { return iters(ScaleQuick, w) }
	tage := func() uarch.Config {
		c := uarch.SS4Way()
		c.Name, c.Predictor = "SS-4way-TAGE", uarch.PredTAGE
		return c
	}
	cells := []struct {
		label string
		point func(w workloads.Workload) SweepPoint
	}{
		{"straight-2way", func(w workloads.Workload) SweepPoint {
			return StraightPoint("pool", "", w, iters(w), ModeREP, uarch.Straight2Way())
		}},
		{"straight-4way", func(w workloads.Workload) SweepPoint {
			return StraightPoint("pool", "", w, iters(w), ModeRAW, uarch.Straight4Way())
		}},
		{"ss-2way", func(w workloads.Workload) SweepPoint { return SSPoint("pool", "", w, iters(w), uarch.SS2Way()) }},
		{"ss-4way", func(w workloads.Workload) SweepPoint { return SSPoint("pool", "", w, iters(w), uarch.SS4Way()) }},
		{"ss-4way-tage", func(w workloads.Workload) SweepPoint { return SSPoint("pool", "", w, iters(w), tage()) }},
		{"cg-2way", func(w workloads.Workload) SweepPoint { return CGPoint("pool", "", w, iters(w), uarch.CG2Way()) }},
		{"cg-4way", func(w workloads.Workload) SweepPoint { return CGPoint("pool", "", w, iters(w), uarch.CG4Way()) }},
	}
	pts := make([]SweepPoint, len(cells))
	for i, c := range cells {
		w := ws[(i+shift)%2]
		pts[i] = c.point(w)
		pts[i].Label = c.label + "/" + string(w)
	}
	return pts
}

// withoutWall drops the one field that legitimately differs between
// two runs of a point.
func withoutWall(rs []PointResult) []PointResult {
	out := append([]PointResult(nil), rs...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestPooledCoresMatchFresh runs a golden mix on one session with 2
// workers: twice as is, so each recycled core reruns its last image,
// then shifted, so each moves onto another image. Every result must
// equal a fresh session's, whose cores are all new, and no pass after
// the first may build a core: the pool matches configurations by value,
// not by their L3 pointer, and a recycled core is reset to exactly its
// power-on state.
func TestPooledCoresMatchFresh(t *testing.T) {
	s := NewSession()
	s.Workers = 2
	for pass, shift := range []int{0, 0, 1} {
		pooled, err := s.Run(poolMix(shift))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := runOn(2, poolMix(shift))
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range withoutWall(pooled) {
			if want := withoutWall(fresh)[i]; !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d, %s: pooled core gave\n%+v\nfresh core gave\n%+v", pass, got.Point.Name(), *got.Stats, *want.Stats)
			}
		}
		if n, want := s.cores.Built(), int64(len(pooled)); n != want {
			t.Errorf("after pass %d the session built %d cores, want %d (one per configuration)", pass, n, want)
		}
	}
}
