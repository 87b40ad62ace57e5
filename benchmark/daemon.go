package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"straight/internal/bench"
	"straight/internal/resultstore"
	"straight/internal/served"
)

// daemonClients is the number of closed-loop clients, and connections:
// one per CPU the benchmark is sized for.
const daemonClients = 2

// daemonWarm serves jobs from an in-process straightd whose store
// already holds every point, so no job compiles or simulates: the
// store, JSON, HTTP and coalescing do all the work.
type daemonWarm struct {
	*env
	pts  []bench.SweepPoint
	rngs [daemonClients]*rand.Rand // each client's job stream

	st     *resultstore.Store
	plain  *daemon // runs bench.ExecutePoint, as straightd does
	traced *daemon // runs tracedPoint; traced runs only
}

func newDaemonWarm(e *env) *daemonWarm {
	w := &daemonWarm{env: e, pts: mixPoints(e.seed, e.sc, "daemon-warm")}
	for c := range w.rngs {
		w.rngs[c] = rng(e.seed, streamClient+uint64(c))
	}
	return w
}

// daemon is one server on a loopback listener with its clients.
type daemon struct {
	srv     *served.Server
	hs      *httptest.Server
	clients [daemonClients]*served.Client
}

func startDaemon(exec func(bench.SweepPoint) (bench.PointResult, error)) *daemon {
	d := &daemon{srv: served.NewServer(served.Config{Workers: daemonClients, Exec: exec})}
	d.hs = httptest.NewServer(d.srv.Handler())
	for c := range d.clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		d.clients[c] = &served.Client{BaseURL: d.hs.URL, HTTPClient: &http.Client{Transport: tr}}
	}
	return d
}

func (d *daemon) close() {
	if d == nil {
		return
	}
	d.srv.Shutdown()
	for _, c := range d.clients {
		c.HTTPClient.CloseIdleConnections()
	}
	d.hs.Close()
}

func (w *daemonWarm) setup(tr *tracer) (*builder, []bench.SweepPoint, error) {
	b := newBuilder(tr)
	b.reset()
	st, err := w.openStore()
	if err != nil {
		return nil, nil, err
	}
	w.st = st
	bench.SetStore(st)
	w.plain = startDaemon(nil)
	fill := w.plain
	if tr != nil {
		w.traced = startDaemon(w.tracedExec(b, tr))
		fill = w.traced
	}
	if _, err := fill.clients[0].Run(w.pts); err != nil {
		return nil, nil, fmt.Errorf("filling the store: %w", err)
	}
	return b, w.pts, nil
}

// tracedExec is the daemon's executor in a traced run. The job's op id
// rides in the point label, which no result depends on.
func (w *daemonWarm) tracedExec(b *builder, tr *tracer) func(bench.SweepPoint) (bench.PointResult, error) {
	return func(p bench.SweepPoint) (bench.PointResult, error) {
		op := jobOp(p.Label)
		id := tr.start("served.exec", tr.rttSpanOf(op), op)
		o, err := tracedPoint(b, w.st, p, id, op)
		tr.end(id)
		return o.res, err
	}
}

// jobOp recovers the op id from a job's point label (0 for none).
func jobOp(label string) int64 {
	_, op, ok := strings.Cut(label, "#")
	if !ok {
		return 0
	}
	n, _ := strconv.ParseInt(op, 10, 64)
	return n
}

// round has each client submit daemonBatch jobs, each waiting for the
// previous one's reply (a closed loop).
func (w *daemonWarm) round(tr *tracer) (roundStats, error) {
	d := w.plain
	if tr != nil {
		d = w.traced
	}
	var per [daemonClients]roundStats
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < w.sc.daemonBatch; i++ {
				per[c].add(w.job(d.clients[c], w.rngs[c], tr))
			}
		}(c)
	}
	wg.Wait()
	r := roundStats{wall: time.Since(start), workers: daemonClients, liveBytes: w.st.Stats().LiveBytes}
	for _, p := range per {
		r.lat = append(r.lat, p.lat...)
		r.failed += p.failed
		r.insts += p.insts
		if r.firstErr == nil {
			r.firstErr = p.firstErr
		}
	}
	if tr != nil {
		st := d.srv.Stats()
		tr.set("served.executed", float64(st.PointsExecuted))
		tr.set("served.coalesced", float64(st.PointsCoalesced))
		tr.set("served.failed", float64(st.PointsFailed))
	}
	return r, nil
}

// job submits the whole mix, in an order drawn from the client's
// stream, as one job (what cmd/experiments -server sends), and checks
// every answer: a stored result equal to what the emulator computes.
func (w *daemonWarm) job(c *served.Client, r *rand.Rand, tr *tracer) (time.Duration, uint64, error) {
	op := w.nextOp.Add(1)
	suffix := "#" + strconv.FormatInt(op, 10)
	pts := make([]bench.SweepPoint, len(w.pts))
	for i, j := range r.Perm(len(w.pts)) {
		pts[i] = w.pts[j]
		pts[i].Label += suffix
	}
	id := tr.start("served.rtt", 0, op)
	tr.setRTTSpan(op, id)
	start := time.Now()
	res, err := c.Run(pts)
	lat := time.Since(start)
	tr.end(id)
	if err != nil {
		return lat, 0, err
	}
	var insts uint64
	for _, res := range res {
		if !res.Cached {
			return lat, 0, fmt.Errorf("%s: not served from the store", res.Point.Name())
		}
		if err := w.check.point(res, nil); err != nil {
			return lat, 0, err
		}
		insts += res.Retired
	}
	return lat, insts, nil
}

func (w *daemonWarm) close() {
	w.plain.close()
	w.traced.close()
	w.plain, w.traced = nil, nil
	bench.SetStore(nil)
	closeStore(w.st)
	w.st = nil
}
