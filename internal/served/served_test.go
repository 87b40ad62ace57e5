package served

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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

// newTestDaemon stands up a Server over an httptest listener with a
// fresh store, and tears down the package-level bench state afterwards.
func newTestDaemon(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "results.store"), resultstore.Options{Salt: 7})
	if err != nil {
		t.Fatal(err)
	}
	bench.SetStore(st)
	bench.ResetStoreStats()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		bench.SetStore(nil)
		bench.ResetStoreStats()
		st.Close()
	})
	return srv, &Client{BaseURL: ts.URL}
}

func TestRoundTripThroughDaemon(t *testing.T) {
	srv, client := newTestDaemon(t, Config{Workers: 2})
	if err := client.Healthy(); err != nil {
		t.Fatal(err)
	}
	points := testPoints()

	// Local ground truth, computed with the store bypassed.
	saved := bench.ResultStore()
	bench.SetStore(nil)
	want, err := bench.RunPoints(points)
	bench.SetStore(saved)
	bench.ResetStoreStats()
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
	bench.SetRemote(client)
	defer bench.SetRemote(nil)
	bench.ResetJournal()
	defer bench.ResetJournal()

	points := testPoints()
	res, err := bench.RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(points) {
		t.Fatalf("got %d results", len(res))
	}
	// The journal records remote results exactly like local ones.
	j := bench.Journal()
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
	jobA := *client
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
	bench.ResetStoreStats()
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
	if got := bench.StoreTotals(); got != (bench.StoreCounts{Hits: 3, Misses: 3, Recomputes: 3}) {
		t.Fatalf("store totals = %+v, want 3 hits / 3 misses / 3 recomputes", got)
	}
}

// TestDaemonRecomputesDamagedEntry is TestStoreRejectsDamagedEntry on
// the daemon path: an entry that was served (and so checked) is
// superseded by one that decodes but fails Stats.Check. The next job
// must recompute the point and stream the recomputed result, never the
// damaged one.
func TestDaemonRecomputesDamagedEntry(t *testing.T) {
	_, client := newTestDaemon(t, Config{Workers: 1})
	p := testPoints()[:1]
	want, err := client.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := client.Run(p); err != nil || !res[0].Cached {
		t.Fatalf("warm run: cached=%v err=%v", err == nil && res[0].Cached, err)
	}

	st := bench.ResultStore()
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

	bench.ResetStoreStats()
	got, err := client.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Cached || got[0].Stats.Retired != want[0].Stats.Retired {
		t.Fatalf("damaged entry served: cached=%v retired=%d, want a recompute retiring %d",
			got[0].Cached, got[0].Stats.Retired, want[0].Stats.Retired)
	}
	if tot := bench.StoreTotals(); tot != (bench.StoreCounts{Misses: 1, Recomputes: 1}) {
		t.Fatalf("damaged entry totals = %+v, want 1 miss / 1 recompute", tot)
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
