package served

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"straight/internal/bench"
	"straight/internal/perf"
	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

func testPoints() []bench.SweepPoint {
	return []bench.SweepPoint{
		bench.SSPoint("served-test", "fib/ss", workloads.MicroFib, 1, uarch.SS2Way()),
		bench.StraightPoint("served-test", "fib/straight", workloads.MicroFib, 1, bench.ModeREP, uarch.Straight2Way()),
		{Section: "served-test", Label: "fib/emu", Workload: workloads.MicroFib, Core: bench.CoreEmuRISCV, Iters: 1},
	}
}

// distinctPoints returns n functional-emulator points with pairwise
// different content addresses (the iteration count is in the key), so
// none of them coalesce with another.
func distinctPoints(n int) []bench.SweepPoint {
	pts := make([]bench.SweepPoint, n)
	for i := range pts {
		pts[i] = bench.SweepPoint{Section: "served-test", Label: fmt.Sprintf("fib/%d", i),
			Workload: workloads.MicroFib, Core: bench.CoreEmuRISCV, Iters: i + 1}
	}
	return pts
}

// fakeResult stands in for a simulation in tests whose executor only
// controls timing.
func fakeResult(p bench.SweepPoint) (bench.PointResult, error) {
	return bench.PointResult{Point: p, Retired: uint64(p.Iters)}, nil
}

// newTestDaemon stands up a Server over an httptest listener, on a
// fresh session over a fresh store unless cfg names a session.
func newTestDaemon(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	return newFlightDaemon(t, cfg, nil)
}

// flightExec is an executor that, unlike Config.Exec, runs under the
// flight's context, so a test can see whether the flight was cancelled.
type flightExec func(ctx context.Context, p bench.SweepPoint) (bench.PointResult, error)

// newFlightDaemon is newTestDaemon with exec, when not nil, installed
// as the server's executor before the listener starts.
func newFlightDaemon(t testing.TB, cfg Config, exec flightExec) (*Server, *Client) {
	t.Helper()
	if cfg.Session == nil {
		st, err := resultstore.Open(filepath.Join(t.TempDir(), "results.store"), resultstore.Options{Salt: 7})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Session = bench.NewSession()
		cfg.Session.SetStore(st)
	}
	srv := NewServer(cfg)
	if exec != nil {
		srv.exec = func(ctx context.Context, p bench.SweepPoint, key resultstore.Key) bench.Outcome {
			res, err := exec(ctx, p)
			if err != nil {
				return bench.Outcome{Key: key, Status: bench.StatusFailed, Err: err}
			}
			return bench.Outcome{Key: key, Result: &res}
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &Client{BaseURL: ts.URL}
}

// storeTotals returns the cumulative store counters of srv's session.
func storeTotals(srv *Server) bench.StoreCounts {
	tot, _ := srv.sess.StoreCounts()
	return tot
}

func TestRoundTripThroughDaemon(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 2})
	if err := client.Healthy(); err != nil {
		t.Fatal(err)
	}
	points := testPoints()

	// Local ground truth, computed on a session without a store.
	want, err := bench.NewSession().Run(points)
	if err != nil {
		t.Fatal(err)
	}

	got, err := client.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cycles != want[i].Cycles || got[i].Retired != want[i].Retired || got[i].Output != want[i].Output {
			t.Fatalf("point %d: daemon result differs: got cycles=%d retired=%d, want cycles=%d retired=%d",
				i, got[i].Cycles, got[i].Retired, want[i].Cycles, want[i].Retired)
		}
		if got[i].Point.Name() != want[i].Point.Name() {
			t.Fatalf("point %d: name %q != %q", i, got[i].Point.Name(), want[i].Point.Name())
		}
	}

	// Second submission: every point is a store hit, marked cached.
	got2, err := client.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got2 {
		if !got2[i].Cached {
			t.Fatalf("point %d: warm daemon result not marked cached", i)
		}
	}
	stats := srv.Stats()
	if stats.JobsFinished != 2 {
		t.Fatalf("JobsFinished = %d, want 2", stats.JobsFinished)
	}
	if stats.StoreCounts.Hits != int64(len(points)) {
		t.Fatalf("store hits = %d, want %d", stats.StoreCounts.Hits, len(points))
	}
}

func TestDaemonErrorPropagation(t *testing.T) {
	_, client := newTestDaemon(t, Config{Workers: 1})
	bad := []bench.SweepPoint{
		{Section: "served-test", Label: "bogus", Workload: "no-such-workload", Core: bench.CoreEmuRISCV, Iters: 1},
	}
	_, err := client.Run(bad)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want error naming the failed point, got %v", err)
	}
}

// TestCoalescingExactlyOneSimulation is the acceptance test for request
// coalescing: two clients submit the same sweep concurrently and every
// point is simulated exactly once. The injected executor blocks until
// released, so the second job provably arrives while the first is still
// in flight — the coalescing window is deterministic, not a race.
func TestCoalescingExactlyOneSimulation(t *testing.T) {
	release := make(chan struct{})
	var execMu sync.Mutex
	execCount := make(map[string]int)
	exec := func(p bench.SweepPoint) (bench.PointResult, error) {
		execMu.Lock()
		execCount[p.Name()]++
		execMu.Unlock()
		<-release
		return bench.ExecutePoint(p)
	}
	srv, client := newTestDaemon(t, Config{Workers: 4, Exec: exec})
	points := testPoints()

	type runOut struct {
		res []bench.PointResult
		err error
	}
	outs := make(chan runOut, 2)
	submit := func() {
		res, err := client.Run(points)
		outs <- runOut{res, err}
	}
	go submit()
	// Wait until every point of job A is in flight…
	waitFor(t, func() bool { return srv.Stats().Inflight == len(points) })
	go submit()
	// …and until job B has attached to all of them.
	waitFor(t, func() bool { return srv.Stats().PointsCoalesced == int64(len(points)) })
	close(release)

	for i := 0; i < 2; i++ {
		out := <-outs
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.res) != len(points) {
			t.Fatalf("got %d results, want %d", len(out.res), len(points))
		}
	}
	execMu.Lock()
	defer execMu.Unlock()
	for _, p := range points {
		if n := execCount[p.Name()]; n != 1 {
			t.Fatalf("point %s simulated %d times, want exactly 1", p.Name(), n)
		}
	}
	stats := srv.Stats()
	if stats.PointsCoalesced != int64(len(points)) {
		t.Fatalf("PointsCoalesced = %d, want %d", stats.PointsCoalesced, len(points))
	}
	if stats.PointsExecuted != int64(len(points)) {
		t.Fatalf("PointsExecuted = %d, want %d", stats.PointsExecuted, len(points))
	}
	if stats.Inflight != 0 {
		t.Fatalf("Inflight = %d after both jobs, want 0", stats.Inflight)
	}
}

func TestStreamShapeAndStatsEndpoint(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 2})
	points := testPoints()

	body, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(client.url("/v1/run"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var lines []PointUpdate
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var u PointUpdate
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, u)
	}
	if len(lines) != len(points)+1 {
		t.Fatalf("stream has %d records, want %d points + 1 summary", len(lines), len(points))
	}
	last := lines[len(lines)-1]
	if !last.Done || last.Errors != 0 {
		t.Fatalf("terminal record = %+v", last)
	}
	seen := map[int]bool{}
	for _, u := range lines[:len(points)] {
		if u.Status != "done" || u.Result == nil {
			t.Fatalf("point record = %+v", u)
		}
		seen[u.Index] = true
	}
	if len(seen) != len(points) {
		t.Fatalf("stream covered indexes %v, want all %d", seen, len(points))
	}

	// Stats endpoint round-trips as JSON and reflects the job.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsFinished != 1 || st.Workers != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Store == nil || st.Store.Entries == 0 {
		t.Fatalf("stats missing store snapshot: %+v", st.Store)
	}
	_ = srv
}

func TestRemoteIntegration(t *testing.T) {
	_, client := newTestDaemon(t, Config{Workers: 2})
	local := bench.NewSession()
	local.Remote = client

	points := testPoints()
	res, err := local.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(points) {
		t.Fatalf("got %d results", len(res))
	}
	// The journal records remote results exactly like local ones.
	j := local.Journal()
	if len(j) != len(points) {
		t.Fatalf("journal has %d records, want %d", len(j), len(points))
	}
	if j[0].Section != "served-test" {
		t.Fatalf("journal[0] = %+v", j[0])
	}
}

func TestShutdownFailsFast(t *testing.T) {
	srv, client := newTestDaemon(t, Config{
		Workers: 1,
		Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
			time.Sleep(5 * time.Millisecond)
			return bench.ExecutePoint(p)
		},
	})
	srv.Shutdown()
	// With the lone worker slot free but the server stopped, queued
	// points must abort rather than simulate.
	_, err := client.Run(testPoints()[:1])
	if err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("want shutdown error, got %v", err)
	}
	// A point stopped by shutdown is no failure of the point.
	waitFor(t, func() bool { return srv.Stats().JobsFinished == 1 })
	if st := srv.Stats(); st.PointsCancelled != 1 || st.PointsFailed != 0 {
		t.Fatalf("points_cancelled = %d, points_failed = %d; want 1 and 0", st.PointsCancelled, st.PointsFailed)
	}
}

// TestPutErrorOnTheWire closes the store under the daemon's session, so
// a put fails while Get still serves the in-memory index. The point
// must still deliver its result, and its record must carry the put
// error, which /v1/stats counts as a store put error, not a failure.
func TestPutErrorOnTheWire(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 1})
	if err := srv.sess.Store().Close(); err != nil {
		t.Fatal(err)
	}
	const want = "resultstore: append: invalid argument"
	var updates []PointUpdate
	client.OnUpdate = func(u PointUpdate) { updates = append(updates, u) }
	if _, err := client.Run(testPoints()[2:]); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 1 || updates[0].Status != "done" || updates[0].Result == nil || updates[0].PutError != want {
		t.Fatalf("record = %+v, want done with a result and put_error %q", updates, want)
	}
	st := srv.Stats()
	if st.StorePutErrors != 1 || st.PointsFailed != 0 || st.PointsExecuted != 1 {
		t.Fatalf("store_put_errors = %d, points_failed = %d, points_executed = %d; want 1, 0, 1",
			st.StorePutErrors, st.PointsFailed, st.PointsExecuted)
	}
	if _, first := srv.sess.PutErrors(); first == nil || first.Error() != want {
		t.Fatalf("session's first put error = %v, want %q", first, want)
	}
}

// TestClientCountsPutErrors: when the daemon cannot store what it
// computed, the client still returns every result, and counts each
// put_error record and keeps the first, as a local session does.
func TestClientCountsPutErrors(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 1})
	if err := srv.sess.Store().Close(); err != nil {
		t.Fatal(err)
	}
	const want = "resultstore: append: invalid argument"
	if n, first := client.PutErrors(); n != 0 || first != nil {
		t.Fatalf("before any job: %d put errors (first %v), want none", n, first)
	}
	for range 2 {
		res, err := client.Run(testPoints()[:2])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Stats == nil || r.Retired == 0 {
				t.Fatalf("%s: delivered no result: %+v", r.Point.Name(), r)
			}
		}
	}
	if n, first := client.PutErrors(); n != 4 || first == nil || first.Error() != want {
		t.Fatalf("put errors = %d (first %v), want 4 (first %q)", n, first, want)
	}
}

// TestShutdownInterruptsRunningSimulation starts a point that would
// simulate for minutes: Shutdown alone, with no call into bench, must
// stop it, and the job reports the interrupt. It covers only the
// default executor: a Config.Exec executor is not given the server's
// context, so Shutdown cannot stop a point one is running.
func TestShutdownInterruptsRunningSimulation(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 1})
	long := bench.StraightPoint("served-test", "long", workloads.Dhrystone, 1_000_000, bench.ModeREP, uarch.Straight2Way())
	done := make(chan error, 1)
	go func() { _, err := client.Run([]bench.SweepPoint{long}); done <- err }()
	waitFor(t, func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("straight/internal/cores/engine.(*Core["))
	})
	srv.Shutdown()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), uarch.ErrInterrupted.Error()) {
			t.Fatalf("want the point interrupted, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation still running 10s after Shutdown")
	}
}

// TestBadCacheGeometryFailsOnlyItsPoint sends jobs whose one point has
// a configuration no core can run through the default executor: an
// impossible L1D (zero ways), a scheduler size engine.New cannot
// allocate, and a window or fetch width that would deadlock the core.
// That point must fail alone, at once, with the error naming the field
// rather than a recovered panic or a deadlock, and the job's other
// points must simulate and succeed.
func TestBadCacheGeometryFailsOnlyItsPoint(t *testing.T) {
	_, client := newTestDaemon(t, Config{Workers: 2})
	for _, tc := range []struct {
		edit func(*uarch.Config)
		want string
	}{
		{func(c *uarch.Config) { c.L1D.Ways = 0 }, "uarch: L1D cache Ways = 0, want 1..65536"},
		{func(c *uarch.Config) { c.SchedulerSize = -1 }, "uarch: SchedulerSize = -1, want 1..65536"},
		{func(c *uarch.Config) { c.ROBSize = 0 }, "uarch: ROBSize = 0, want 1..65536"},
		{func(c *uarch.Config) { c.FetchWidth = 0 }, "uarch: FetchWidth = 0, want 1..256"},
	} {
		t.Run(strings.Fields(tc.want)[1], func(t *testing.T) {
			cfg := uarch.SS2Way()
			tc.edit(&cfg)
			points := append(testPoints(), bench.SSPoint("served-test", "fib/ss-bad", workloads.MicroFib, 1, cfg))
			bad := len(points) - 1

			var mu sync.Mutex
			updates := map[int]PointUpdate{}
			client := &Client{BaseURL: client.BaseURL}
			client.OnUpdate = func(u PointUpdate) {
				mu.Lock()
				updates[u.Index] = u
				mu.Unlock()
			}
			_, err := client.Run(points)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want the job to fail with %q, got %v", tc.want, err)
			}
			mu.Lock()
			defer mu.Unlock()
			for i := range points {
				u := updates[i]
				switch {
				case i == bad && (u.Status != "error" || !strings.Contains(u.Error, tc.want) || strings.Contains(u.Error, "panic")):
					t.Errorf("bad point: status %q error %q, want %q without a panic", u.Status, u.Error, tc.want)
				case i != bad && (u.Status != "done" || u.Result == nil):
					t.Errorf("point %d (%s): status %q error %q, want done", i, points[i].Name(), u.Status, u.Error)
				}
			}
		})
	}
}

// TestPanicFailsOnlyItsPoint injects an executor that panics on one
// point while another job is coalesced onto that point's flight. The
// panic must fail that point alone, for both jobs, with an error that
// names its content address; the slot and the flight must be released,
// so the job's other points and a later job still run.
func TestPanicFailsOnlyItsPoint(t *testing.T) {
	points := distinctPoints(3)
	bad := points[1]
	badKey, err := bench.PointKey(bad)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before the daemon's cleanup waits for the requests
	srv, client := newTestDaemon(t, Config{
		Workers: 1, // a leaked slot would hang every later point
		Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
			<-release
			if p.Iters == bad.Iters {
				panic("injected executor panic")
			}
			return fakeResult(p)
		},
	})

	var mu sync.Mutex
	status := map[int]string{}
	jobA := &Client{BaseURL: client.BaseURL}
	jobA.OnUpdate = func(u PointUpdate) {
		mu.Lock()
		status[u.Index] = u.Status
		mu.Unlock()
	}
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { _, err := jobA.Run(points); errA <- err }()
	// Job A's two workers hold points 0 and 1 (the panicking one)…
	waitFor(t, func() bool { return srv.Stats().Inflight >= 2 })
	go func() { _, err := client.Run([]bench.SweepPoint{bad}); errB <- err }()
	// …and job B waits on point 1's flight.
	waitFor(t, func() bool { return srv.Stats().PointsCoalesced == 1 })
	unblock()

	for job, ch := range map[string]chan error{"owner": errA, "coalesced waiter": errB} {
		select {
		case err := <-ch:
			if err == nil || !strings.Contains(err.Error(), "injected executor panic") ||
				!strings.Contains(err.Error(), badKey.String()) {
				t.Fatalf("%s: want the panic as an error naming key %s, got %v", job, badKey, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: job hung after an executor panic", job)
		}
	}
	mu.Lock()
	for i := range points {
		want := "done"
		if i == 1 {
			want = "error"
		}
		if status[i] != want {
			t.Errorf("point %d: status %q, want %q", i, status[i], want)
		}
	}
	mu.Unlock()

	later := make(chan error, 1)
	go func() { _, err := client.Run([]bench.SweepPoint{points[0], points[2]}); later <- err }()
	select {
	case err := <-later:
		if err != nil {
			t.Fatalf("job after the panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job after the panic hung: worker slot leaked")
	}
	// Each job's handler counts its failures after the client has read
	// the stream, so wait for the counters rather than read them once.
	waitFor(t, func() bool { st := srv.Stats(); return st.Inflight == 0 && st.PointsFailed == 2 })
}

// TestOversizeJobRefused sends a valid job padded past MaxJobBytes: it
// must be refused with 413, and the server must serve the next job.
func TestOversizeJobRefused(t *testing.T) {
	_, client := newTestDaemon(t, Config{Workers: 1})
	points := testPoints()[2:]
	body, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(body[:len(body)-1:len(body)-1], bytes.Repeat([]byte{' '}, MaxJobBytes)...)
	padded = append(padded, '}')
	resp, err := http.Post(client.url("/v1/run"), "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize job: status %s, want 413", resp.Status)
	}
	if _, err := client.Run(points); err != nil {
		t.Fatalf("job after an oversize one: %v", err)
	}
}

// TestJobFanOutBounded holds a 2,000-point job in its executor and
// checks that the job costs a fixed set of goroutines sized from
// Workers, not one per point.
func TestJobFanOutBounded(t *testing.T) {
	const workers = 2
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before the daemon's cleanup waits for the requests
	srv, client := newTestDaemon(t, Config{
		Workers: workers,
		Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
			<-release
			return fakeResult(p)
		},
	})
	points := distinctPoints(2000)

	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { _, err := client.Run(points); done <- err }()
	waitFor(t, func() bool { return srv.Stats().Inflight >= 2*workers })
	// The job's workers, plus the submitting goroutine and the
	// connection's client and server goroutines.
	bound := base + 2*workers + 8
	for i := 0; i < 20; i++ {
		if n := runtime.NumGoroutine(); n > bound {
			t.Fatalf("%d goroutines while a 2000-point job is held, want <= %d", n, bound)
		}
		time.Sleep(time.Millisecond)
	}
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTenThousandPointJob sends one job of 10,000 distinct emulator
// points, about 7.6 MB of JSON, through a stub executor: the stream must
// carry exactly one record per index and a terminal record without
// errors, and /v1/stats must count every point executed with none left
// in flight.
func TestTenThousandPointJob(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-point job")
	}
	srv, client := newTestDaemon(t, Config{Workers: 2, Exec: fakeResult})
	points := distinctPoints(10_000)
	body, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > MaxJobBytes {
		t.Fatalf("job is %d bytes, past MaxJobBytes", len(body))
	}
	resp, err := http.Post(client.url("/v1/run"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := make([]int, len(points))
	var last PointUpdate
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var u PointUpdate
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch {
		case u.Done:
			last = u
		case u.Index < 0 || u.Index >= len(points) || u.Status != "done":
			t.Fatalf("record = %+v", u)
		default:
			seen[u.Index]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("point %d has %d records, want 1", i, n)
		}
	}
	if !last.Done || last.Errors != 0 {
		t.Fatalf("terminal record = %+v, want done with 0 errors", last)
	}
	if st := srv.Stats(); st.Inflight != 0 || st.PointsExecuted != int64(len(points)) {
		t.Fatalf("inflight = %d, points_executed = %d; want 0 and %d", st.Inflight, st.PointsExecuted, len(points))
	}
}

// TestProgressStreamsPerPoint releases one point at a time: each
// point's record must reach the client before the next point is
// released, so batching flushes never holds back progress.
func TestProgressStreamsPerPoint(t *testing.T) {
	points := distinctPoints(5)
	release := make([]chan struct{}, len(points))
	for i := range release {
		release[i] = make(chan struct{})
	}
	released := 0
	defer func() { // before the daemon's cleanup waits for the request
		for _, ch := range release[released:] {
			close(ch)
		}
	}()
	_, client := newTestDaemon(t, Config{
		Workers: len(points), // every point holds a slot while it waits
		Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
			<-release[p.Iters-1]
			return fakeResult(p)
		},
	})
	seen := make(chan int, len(points))
	client.OnUpdate = func(u PointUpdate) { seen <- u.Index }
	done := make(chan error, 1)
	go func() { _, err := client.Run(points); done <- err }()
	for k := range points {
		close(release[k])
		released++
		select {
		case i := <-seen:
			if i != k {
				t.Fatalf("record for point %d arrived after releasing point %d", i, k)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("point %d's record never reached the client", k)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStreamBytesMatchEncoder holds the only worker slot while a job
// mixing store hits, misses, a coalesced duplicate, an unkeyable point
// and emulator points queues, then checks every NDJSON line against
// json.Encoder's output for the PointUpdate it decodes to: splicing the
// stored bytes in must write exactly what encoding the decoded result
// writes.
func TestStreamBytesMatchEncoder(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 1})
	hits := testPoints() // cycle cores and an emulator
	if _, err := client.Run(hits); err != nil {
		t.Fatal(err)
	}
	dup := bench.StraightPoint("served-test", "fib/straight@2", workloads.MicroFib, 2, bench.ModeREP, uarch.Straight2Way())
	job := []bench.SweepPoint{dup, dup}
	job = append(job, hits...)
	job = append(job,
		bench.SSPoint("served-test", "fib/ss@2", workloads.MicroFib, 2, uarch.SS2Way()),
		bench.SweepPoint{Section: "served-test", Label: "fib/emu-straight", Workload: workloads.MicroFib,
			Core: bench.CoreEmuStraight, Iters: 2, Mode: bench.ModeREP, MaxDist: 31},
		bench.SweepPoint{Section: "served-test", Label: "bogus", Workload: "no-such-workload", Core: bench.CoreEmuRISCV, Iters: 1},
	)
	body, err := json.Marshal(JobRequest{Points: job})
	if err != nil {
		t.Fatal(err)
	}

	srv.sem <- struct{}{} // the job's two workers both queue on dup
	stream := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(client.url("/v1/run"), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			stream <- nil
			return
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		stream <- b.Bytes()
	}()
	waitFor(t, func() bool { return srv.Stats().PointsCoalesced == 1 })
	<-srv.sem

	lines := bytes.SplitAfter(<-stream, []byte("\n"))
	if last := lines[len(lines)-1]; len(last) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != len(job)+1 {
		t.Fatalf("stream has %d lines, want %d points + 1 summary", len(lines), len(job))
	}
	var cached, coalesced, errs, fresh int
	for _, line := range lines {
		var u PointUpdate
		if err := json.Unmarshal(line, &u); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&u); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("stream line differs from the encoder's:\ngot  %s\nwant %s", line, want.Bytes())
		}
		switch {
		case u.Done:
		case u.Status == "error":
			errs++
		case u.Coalesced:
			coalesced++
		case u.Cached:
			cached++
		default:
			fresh++
		}
	}
	if cached != len(hits) || coalesced != 1 || errs != 1 || fresh != 3 {
		t.Fatalf("stream mix: %d cached, %d coalesced, %d errors, %d fresh; want %d, 1, 1, 3",
			cached, coalesced, errs, fresh, len(hits))
	}
	// The warming run missed and recomputed its 3 points; the job hit
	// those 3 and missed and recomputed 3 more.
	if got := storeTotals(srv); got != (bench.StoreCounts{Hits: 3, Misses: 6, Recomputes: 6}) {
		t.Fatalf("store totals = %+v, want 3 hits / 6 misses / 6 recomputes", got)
	}
}

// TestDaemonRecomputesDamagedEntry is TestStoreRejectsDamagedEntry on
// the daemon path: an entry that was served (and so checked) is
// superseded by one that decodes but fails Stats.Check. The next job
// must recompute the point and stream the recomputed result, never the
// damaged one.
func TestDaemonRecomputesDamagedEntry(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 1})
	p := testPoints()[:1]
	want, err := client.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := client.Run(p); err != nil || !res[0].Cached {
		t.Fatalf("warm run: cached=%v err=%v", err == nil && res[0].Cached, err)
	}

	st := srv.sess.Store()
	key, err := bench.PointKey(p[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := st.Get(key)
	var d bench.ResultData
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	d.Stats.Retired += 12345 // breaks Stats.Check
	bad, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, bad); err != nil {
		t.Fatal(err)
	}

	got, err := client.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Cached || got[0].Stats.Retired != want[0].Stats.Retired {
		t.Fatalf("damaged entry served: cached=%v retired=%d, want a recompute retiring %d",
			got[0].Cached, got[0].Stats.Retired, want[0].Stats.Retired)
	}
	// The cold and warm runs made 1 miss and 1 hit; the damaged entry
	// adds 1 miss and 1 recompute.
	if tot := storeTotals(srv); tot != (bench.StoreCounts{Hits: 1, Misses: 2, Recomputes: 2}) {
		t.Fatalf("damaged entry totals = %+v, want 1 hit / 2 misses / 2 recomputes", tot)
	}
	if res, err := client.Run(p); err != nil || !res[0].Cached {
		t.Fatalf("repaired entry not served from the store: err=%v", err)
	}
}

// TestOwnerLeavesQueuedFlightToWaiter fills the only slot, then has a
// job own a queued point's flight and disconnect while another job is
// coalesced onto it. The waiter's client is still connected, so its
// point must run and succeed once the slot frees. An owner that leaves
// with no one else on its flight still fails and detaches it.
func TestOwnerLeavesQueuedFlightToWaiter(t *testing.T) {
	points := distinctPoints(3)
	holder, lone, shared := points[0], points[1], points[2]
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before the daemon's cleanup waits for the requests
	srv, client := newTestDaemon(t, Config{
		Workers: 1,
		Exec: func(p bench.SweepPoint) (bench.PointResult, error) {
			if p.Iters == holder.Iters {
				<-release
			}
			return fakeResult(p)
		},
	})
	// post submits one job whose request ends when the returned cancel
	// is called.
	post := func(p bench.SweepPoint) context.CancelFunc {
		body, err := json.Marshal(JobRequest{Points: []bench.SweepPoint{p}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "POST", client.url("/v1/run"), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		return cancel
	}

	errHolder := make(chan error, 1)
	go func() { _, err := client.Run([]bench.SweepPoint{holder}); errHolder <- err }()
	waitFor(t, func() bool { return srv.Stats().Inflight == 1 })

	cancelLone := post(lone)
	waitFor(t, func() bool { return srv.Stats().Inflight == 2 })
	cancelLone()
	waitFor(t, func() bool { return srv.Stats().Inflight == 1 })

	cancelOwner := post(shared)
	defer cancelOwner()
	waitFor(t, func() bool { return srv.Stats().Inflight == 2 })
	errWaiter := make(chan error, 1)
	go func() { _, err := client.Run([]bench.SweepPoint{shared}); errWaiter <- err }()
	waitFor(t, func() bool { return srv.Stats().PointsCoalesced == 1 })
	cancelOwner()
	select {
	case err := <-errWaiter:
		t.Fatalf("waiter finished while the only slot is held: %v", err)
	case <-time.After(200 * time.Millisecond):
	}

	unblock()
	for job, ch := range map[string]chan error{"slot holder": errHolder, "waiter": errWaiter} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s: %v", job, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: job hung", job)
		}
	}
	waitFor(t, func() bool { return srv.Stats().Inflight == 0 })
}

// postJob submits points as one job on its own goroutine and returns
// the function that ends the request, as a client disconnecting does.
func postJob(t *testing.T, client *Client, points ...bench.SweepPoint) context.CancelFunc {
	t.Helper()
	body, err := json.Marshal(JobRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", client.url("/v1/run"), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	return cancel
}

// heldExec returns an executor that counts its calls and holds each
// point until release closes, failing it if its flight is cancelled
// first.
func heldExec(release <-chan struct{}, calls *atomic.Int64) flightExec {
	return func(ctx context.Context, p bench.SweepPoint) (bench.PointResult, error) {
		calls.Add(1)
		select {
		case <-release:
			return fakeResult(p)
		case <-ctx.Done():
			return bench.PointResult{}, ctx.Err()
		}
	}
}

// TestOwnerLeavesRunningFlightToWaiter has the first holder of a
// running flight disconnect while another job waits on it. The waiter
// still holds the flight, so it must not be cancelled: the waiter gets
// the result of the one execution.
func TestOwnerLeavesRunningFlightToWaiter(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before the daemon's cleanup waits for the requests
	var calls atomic.Int64
	srv, client := newFlightDaemon(t, Config{Workers: 1}, heldExec(release, &calls))
	p := distinctPoints(1)

	cancelOwner := postJob(t, client, p...)
	defer cancelOwner()
	waitFor(t, func() bool { return calls.Load() == 1 })
	errWaiter := make(chan error, 1)
	go func() { _, err := client.Run(p); errWaiter <- err }()
	waitFor(t, func() bool { return srv.Stats().PointsCoalesced == 1 })
	cancelOwner()
	select {
	case err := <-errWaiter:
		t.Fatalf("waiter finished before the point was released: %v", err)
	case <-time.After(200 * time.Millisecond):
	}

	unblock()
	select {
	case err := <-errWaiter:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter: job hung")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("point executed %d times, want 1", n)
	}
	waitFor(t, func() bool { return srv.Stats().Inflight == 0 })
}

// TestWaiterLeavesFlightRunning has a coalesced waiter disconnect while
// the flight runs. The first holder still holds it, so it must not be
// cancelled: the first holder gets its result.
func TestWaiterLeavesFlightRunning(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before the daemon's cleanup waits for the requests
	var calls atomic.Int64
	srv, client := newFlightDaemon(t, Config{Workers: 1}, heldExec(release, &calls))
	p := distinctPoints(1)

	errOwner := make(chan error, 1)
	go func() { _, err := client.Run(p); errOwner <- err }()
	waitFor(t, func() bool { return calls.Load() == 1 })
	cancelWaiter := postJob(t, client, p...)
	defer cancelWaiter()
	waitFor(t, func() bool { return srv.Stats().PointsCoalesced == 1 })
	cancelWaiter()
	select {
	case err := <-errOwner:
		t.Fatalf("first holder finished before the point was released: %v", err)
	case <-time.After(200 * time.Millisecond):
	}

	unblock()
	select {
	case err := <-errOwner:
		if err != nil {
			t.Fatalf("first holder: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first holder: job hung")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("point executed %d times, want 1", n)
	}
	waitFor(t, func() bool { return srv.Stats().Inflight == 0 })
}

// longDaemonPoint simulates for minutes: a million Dhrystone iterations
// on a cycle core.
func longDaemonPoint() bench.SweepPoint {
	return bench.StraightPoint("served-test", "long", workloads.Dhrystone, 1_000_000, bench.ModeREP, uarch.Straight2Way())
}

// inEngine reports whether any goroutine is inside the cycle engine.
func inEngine() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("straight/internal/cores/engine.(*Core["))
}

// TestLastHolderDisconnectStopsSimulation ends the only request holding
// a running point on the default executor. No one holds the flight any
// more, so its simulation must stop, the flight must be gone, nothing
// may be stored under the point's key, and the stats must count the
// point as cancelled, not failed.
func TestLastHolderDisconnectStopsSimulation(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 1})
	t.Cleanup(srv.Shutdown) // runs before the listener's Close waits for the request
	long := longDaemonPoint()
	key, err := bench.PointKey(long)
	if err != nil {
		t.Fatal(err)
	}
	cancel := postJob(t, client, long)
	defer cancel()
	waitFor(t, inEngine)
	cancel()
	waitFor(t, func() bool { return !inEngine() && srv.Stats().Inflight == 0 })
	if _, ok := srv.sess.Store().Get(key); ok {
		t.Fatal("a cancelled point was stored")
	}
	waitFor(t, func() bool { return srv.Stats().JobsFinished == 1 })
	if st := srv.Stats(); st.PointsFailed != 0 || st.PointsCancelled != 1 {
		t.Fatalf("points_failed = %d, points_cancelled = %d; want 0 and 1", st.PointsFailed, st.PointsCancelled)
	}
}

// TestRemoteInterruptStopsDaemonSimulation interrupts a session whose
// Remote is a daemon while the daemon simulates the session's one
// point: Run must return at once with the interrupt, and the daemon,
// which no other request holds the point for, must stop simulating it.
func TestRemoteInterruptStopsDaemonSimulation(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 1})
	t.Cleanup(srv.Shutdown) // runs before the listener's Close waits for the request
	sess := bench.NewSession()
	sess.Remote = client
	done := make(chan error, 1)
	go func() { _, err := sess.Run([]bench.SweepPoint{longDaemonPoint()}); done <- err }()
	waitFor(t, inEngine)
	sess.Interrupt()
	select {
	case err := <-done:
		if !errors.Is(err, uarch.ErrInterrupted) {
			t.Fatalf("interrupted remote run: err = %v, want ErrInterrupted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remote run still waiting 10s after Interrupt")
	}
	waitFor(t, func() bool { return !inEngine() && srv.Stats().Inflight == 0 })
}

// warmJobKernels are the five machines of the repo benchmark's mix.
var warmJobKernels = []string{"straight-4way", "straight-2way", "ss-4way", "ss-2way", "cg-4way"}

// warmJobPoints returns 30 tiny cycle-core points with distinct content
// addresses: three microkernels at two iteration counts on each kernel.
func warmJobPoints(tb testing.TB) []bench.SweepPoint {
	var pts []bench.SweepPoint
	for _, name := range warmJobKernels {
		k, err := perf.KernelByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, w := range []workloads.Workload{workloads.MicroFib, workloads.MicroPointer, workloads.MicroBranch} {
			for iters := 1; iters <= 2; iters++ {
				label := fmt.Sprintf("%s/%s@%d", name, w, iters)
				p := bench.SweepPoint{Section: "warm-job", Label: label, Workload: w,
					Core: k.Kind, Iters: iters, Config: k.Cfg}
				if k.Kind == perf.KindStraight {
					p.Mode, p.MaxDist = bench.ModeREP, k.Cfg.MaxDistance
				}
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// BenchmarkWarmJob times one 30-point job of tiny cycle-core points
// against a store that already holds every point: the daemon's
// store-hit path (key with config JSON, store get, stream encode, HTTP)
// with no simulation, as the repo benchmark's daemon-warm runs it.
func BenchmarkWarmJob(b *testing.B) {
	_, client := newTestDaemon(b, Config{Workers: 2})
	points := warmJobPoints(b)
	if _, err := client.Run(points); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Run(points)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if !r.Cached {
				b.Fatalf("%s: not served from the store", r.Point.Name())
			}
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
