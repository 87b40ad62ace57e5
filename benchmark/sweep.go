package main

import (
	"sync"
	"time"

	"straight/internal/bench"
)

// sweepWorkers is the sweep's point parallelism: the 2 CPUs the
// benchmark is sized for.
const sweepWorkers = 2

// sweepCold is what cmd/experiments does on a fresh checkout: every
// point goes from MiniC source through build, simulation and checks to
// a stored result, with an empty build cache and an empty store.
type sweepCold struct {
	*env
	pts []bench.SweepPoint
}

func (w *sweepCold) setup(tr *tracer) (*builder, []bench.SweepPoint, error) {
	b, err := buildAll(tr, w.pts)
	return b, w.pts, err
}

// round is one cold sweep of the mix on sweepWorkers goroutines.
func (w *sweepCold) round(tr *tracer) (roundStats, error) {
	b := newBuilder(tr)
	b.reset()
	st, err := w.openStore()
	if err != nil {
		return roundStats{}, err
	}
	defer closeStore(st)
	if tr == nil {
		bench.SetStore(st)
		defer bench.SetStore(nil)
	}

	lat := make([]time.Duration, len(w.pts))
	insts := make([]uint64, len(w.pts))
	errs := make([]error, len(w.pts))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < sweepWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var res bench.PointResult
				lat[i], res, errs[i] = w.execute(b, st, tr, "sweep.point", w.pts[i])
				insts[i] = res.Retired
			}
		}()
	}
	for i := range w.pts {
		next <- i
	}
	close(next)
	wg.Wait()
	r := roundStats{wall: time.Since(start), workers: sweepWorkers, liveBytes: st.Stats().LiveBytes}
	for i := range w.pts {
		r.add(lat[i], insts[i], errs[i])
	}
	return r, nil
}

func (w *sweepCold) close() {}
