package main

import (
	"time"

	"straight/internal/bench"
)

// detailLong runs long programs in full detail, one after another, so
// its throughput is a single-core number. Images are built in setup, so
// a round is engine time plus one store write per run.
type detailLong struct {
	*env
	pts []bench.SweepPoint
	b   *builder // holds the images setup built
}

func (w *detailLong) setup(tr *tracer) (*builder, []bench.SweepPoint, error) {
	var err error
	w.b, err = buildAll(tr, w.pts)
	return w.b, w.pts, err
}

// round runs every kernel once against a fresh store, so every run
// simulates.
func (w *detailLong) round(tr *tracer) (roundStats, error) {
	st, err := w.openStore()
	if err != nil {
		return roundStats{}, err
	}
	defer closeStore(st)
	if tr == nil {
		bench.SetStore(st)
		defer bench.SetStore(nil)
	}
	r := roundStats{workers: 1}
	start := time.Now()
	for _, p := range w.pts {
		lat, res, err := w.execute(w.b, st, tr, "detail.run", p)
		r.add(lat, res.Retired, err)
	}
	r.wall = time.Since(start)
	r.liveBytes = st.Stats().LiveBytes
	return r, nil
}

func (w *detailLong) close() {}
