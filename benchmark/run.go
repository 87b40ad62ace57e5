package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"straight/internal/bench"
	"straight/internal/perf"
	"straight/internal/resultstore"
)

// workload is one of the benchmark's traffic mixes.
type workload interface {
	// setup prepares an independent run: build images, open stores,
	// start the daemon. It returns the builder holding the images and
	// the points whose images the oracle checks. tr is non-nil in a
	// traced run.
	setup(tr *tracer) (*builder, []bench.SweepPoint, error)
	// round runs one balanced set of operations, traced when tr is
	// non-nil. An error means the round could not run at all; failed
	// operations are counted in roundStats.
	round(tr *tracer) (roundStats, error)
	// close releases what setup acquired.
	close()
}

// preparer is a workload with untimed work to do after the oracle and
// before a traced run: sampled-long's full detailed reference runs.
type preparer interface {
	prepare(tr *tracer) error
}

// roundStats is what one round measured.
type roundStats struct {
	lat       []time.Duration // per successful or failed operation
	failed    int
	firstErr  error
	insts     uint64        // program instructions covered by the round's results
	wall      time.Duration // first operation start to last operation end
	workers   int           // operations in flight at once
	liveBytes int64         // live bytes of the round's result store
	allocs    uint64        // heap bytes allocated during the round
}

// add records one operation.
func (r *roundStats) add(lat time.Duration, insts uint64, err error) {
	r.lat = append(r.lat, lat)
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.insts += insts
}

// env is the state the workloads of one process share.
type env struct {
	sc     scale
	seed   uint64
	dir    string // scratch directory for result stores
	check  *checker
	nextOp atomic.Int64
	stores atomic.Int64
}

// openStore opens a fresh, empty result store.
func (e *env) openStore() (*resultstore.Store, error) {
	path := filepath.Join(e.dir, fmt.Sprintf("store-%d", e.stores.Add(1)))
	return resultstore.Open(path, resultstore.Options{Salt: perf.VersionSalt()})
}

// closeStore closes a store and deletes its file.
func closeStore(st *resultstore.Store) {
	if st == nil {
		return
	}
	_ = st.Close() // the file is deleted next; durability is moot
	os.Remove(st.Path())
}

// execute runs one sweep point as an operation: untraced through
// bench.ExecutePoint and the store installed with bench.SetStore, traced
// through tracedPoint on st. The latency covers the point alone; the
// oracle check and the store read-back follow it.
func (e *env) execute(b *builder, st *resultstore.Store, tr *tracer, name string, p bench.SweepPoint) (time.Duration, bench.PointResult, error) {
	op := e.nextOp.Add(1)
	id := tr.start(name, 0, op)
	start := time.Now()
	var o outcome
	var err error
	if tr == nil {
		o.res, err = bench.ExecutePoint(p)
	} else {
		o, err = tracedPoint(b, st, p, id, op)
	}
	lat := time.Since(start)
	tr.end(id)
	if err == nil {
		err = e.check.point(o.res, o.exit)
	}
	if err == nil {
		err = readBack(tr, st, o.res, 0, op)
	}
	return lat, o.res, err
}

// buildAll builds every point's image into a fresh builder.
func buildAll(tr *tracer, pts []bench.SweepPoint) (*builder, error) {
	b := newBuilder(tr)
	b.reset()
	for _, p := range pts {
		if _, err := b.image(p, 0, 0); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// newWorkload builds the named workload over e.
func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "sweep-cold":
		return &sweepCold{env: e, pts: mixPoints(e.seed, e.sc, name)}, nil
	case "daemon-warm":
		return newDaemonWarm(e), nil
	case "sampled-long":
		return &sampledLong{env: e, runs: sampledRuns(e.seed, e.sc)}, nil
	case "detail-long":
		return &detailLong{env: e, pts: longPoints(e.seed, e.sc)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"sweep-cold", "daemon-warm", "sampled-long", "detail-long"}

// phase is every round of one measured interval.
type phase struct {
	rounds []roundStats
}

func (ph phase) ops() (attempted, failed int) {
	for _, r := range ph.rounds {
		attempted += len(r.lat)
		failed += r.failed
	}
	return
}

func (ph phase) latencies() []time.Duration {
	var all []time.Duration
	for _, r := range ph.rounds {
		all = append(all, r.lat...)
	}
	return all
}

// maxSpans ends a traced phase early, bounding the memory spans take
// (about 64 bytes each) on workloads with many short operations.
const maxSpans = 200_000

// measure runs whole rounds for about budget: at least one, and no
// round that would probably end past the budget.
func measure(w workload, tr *tracer, budget time.Duration) (phase, error) {
	var ph phase
	start := time.Now()
	for {
		roundStart := time.Now()
		a0 := heapAllocs()
		r, err := w.round(tr)
		if err != nil {
			return ph, err
		}
		r.allocs = heapAllocs() - a0
		ph.rounds = append(ph.rounds, r)
		if time.Since(start)+time.Since(roundStart) > budget || tr.spanCount() > maxSpans {
			return ph, nil
		}
	}
}

// heapAllocs returns the bytes allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
