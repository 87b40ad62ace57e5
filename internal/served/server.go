package served

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"straight/internal/bench"
	"straight/internal/resultstore"
	"straight/internal/uarch"
)

// JobRequest is the body of POST /v1/run.
type JobRequest struct {
	Points []bench.SweepPoint `json:"points"`
}

// jobPoint is one point of a job as handleRun decodes it. Its Config
// field shadows the embedded SweepPoint.Config, so the body's
// configuration is captured raw and decoded once per distinct value in
// the job (decodeJob); canon is then that configuration's JSON, the
// bytes bench.PointKeyWith hashes, shared by every point that sent it.
type jobPoint struct {
	bench.SweepPoint
	Config rawConfig
	canon  []byte
}

// rawConfig records a point's "Config" member as sent. encoding/json
// decodes a repeated or case-variant key into the same field again,
// merging into what the earlier occurrences set, so every occurrence is
// kept, in order and NUL-separated (no JSON value contains a raw NUL),
// and decoding them in turn reproduces the merge.
type rawConfig []byte

func (c *rawConfig) UnmarshalJSON(b []byte) error {
	if *c != nil {
		*c = append(*c, 0)
	}
	*c = append(*c, b...)
	return nil
}

// decodeJob reads one job body from r. Its points are those
// json.NewDecoder(r).Decode(&JobRequest{}) yields, but each distinct
// raw configuration is decoded and marshalled once for the whole job
// (each point still gets its own L3). On error it also returns the
// HTTP status: 413 past MaxJobBytes, else 400.
func decodeJob(r io.Reader) ([]jobPoint, int, error) {
	var job struct {
		Points []jobPoint `json:"points"`
	}
	if err := json.NewDecoder(r).Decode(&job); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	type config struct {
		cfg   uarch.Config
		canon []byte
	}
	configs := make(map[string]*config)
	for i := range job.Points {
		p := &job.Points[i]
		c := configs[string(p.Config)]
		if c == nil {
			c = new(config)
			for rest := []byte(p.Config); len(rest) > 0; {
				var v []byte
				v, rest, _ = bytes.Cut(rest, []byte{0})
				if err := json.Unmarshal(v, &c.cfg); err != nil {
					return nil, http.StatusBadRequest, err
				}
			}
			var err error
			if c.canon, err = json.Marshal(&c.cfg); err != nil {
				return nil, http.StatusBadRequest, err
			}
			configs[string(p.Config)] = c
		}
		p.SweepPoint.Config = c.cfg
		if c.cfg.L3 != nil {
			l3 := *c.cfg.L3
			p.SweepPoint.Config.L3 = &l3
		}
		p.canon = c.canon
	}
	return job.Points, 0, nil
}

// PointUpdate is one line of the /v1/run response stream. Records with
// Done false describe one finished point; the final record of a stream
// has Done true and carries only the summary fields.
type PointUpdate struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Status string `json:"status,omitempty"` // "done" or "error"
	// Cached: served from the persistent store without simulation.
	// Coalesced: shared the simulation of a concurrent identical point.
	// PutError: delivered, not stored; declared before Result (spliced last).
	Cached    bool              `json:"cached,omitempty"`
	Coalesced bool              `json:"coalesced,omitempty"`
	Error     string            `json:"error,omitempty"`
	PutError  string            `json:"put_error,omitempty"`
	Result    *bench.ResultData `json:"result,omitempty"`

	// Done marks the terminal summary record of the stream.
	Done   bool `json:"done,omitempty"`
	Errors int  `json:"errors,omitempty"`
}

// ServerStats is the GET /v1/stats document. PointsExecuted counts the
// hits and simulations of requests that ran their own flight,
// PointsFailed the failures, and PointsCancelled the points stopped by
// shutdown or because their own request ended first, all from the
// records of finished jobs; PointsCoalesced counts joins as they happen.
type ServerStats struct {
	Workers         int   `json:"workers"`
	JobsStarted     int64 `json:"jobs_started"`
	JobsFinished    int64 `json:"jobs_finished"`
	PointsExecuted  int64 `json:"points_executed"`
	PointsCoalesced int64 `json:"points_coalesced"`
	PointsFailed    int64 `json:"points_failed"`
	PointsCancelled int64 `json:"points_cancelled"`
	Inflight        int   `json:"inflight"`

	StoreCounts    bench.StoreCounts            `json:"store_counts"`
	StoreBySection map[string]bench.StoreCounts `json:"store_by_section,omitempty"`
	Store          *resultstore.Stats           `json:"store,omitempty"`
	StorePutErrors int64                        `json:"store_put_errors,omitempty"`

	BuildCacheHits   int64 `json:"build_cache_hits"`
	BuildCacheMisses int64 `json:"build_cache_misses"`
}

// MaxJobBytes bounds the body of POST /v1/run; larger bodies get 413.
// The largest job cmd/experiments sends (one default-scale figure
// sweep) is about 12 KB, and one fully configured cycle-core point
// about 0.9 KB, so the bound admits jobs of ~9,000 points.
const MaxJobBytes = 8 << 20

// Config parameterizes a Server.
type Config struct {
	// Session executes points and owns the store and counters the stats
	// report; nil means bench.Default().
	Session *bench.Session
	// Workers bounds concurrently simulating points across ALL requests;
	// <= 0 means the session's Parallelism().
	Workers int
	// Exec runs one point; nil means Session.Execute with the key the
	// server already derived. Tests inject a controllable executor to
	// make coalescing windows deterministic. Exec is given neither the
	// server's context nor the flight's, so neither Shutdown nor the
	// last holder leaving stops a point it is already running: both only
	// fail the points that have not started. Only the default
	// executor's simulations are interrupted.
	Exec func(p bench.SweepPoint) (bench.PointResult, error)
}

// errShutdown fails points that would start after Shutdown.
var errShutdown = errors.New("server shutting down")

// flight is one in-flight point execution that concurrent identical
// requests hold; closing done publishes its outcome. refs counts the
// holders; the last to leave detaches it and cancels ctx, the context
// the flight runs under.
type flight struct {
	key    resultstore.Key
	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc
	refs   int // guarded by srv.mu
	done   chan struct{}
	out    bench.Outcome
}

// Server is the daemon's HTTP handler set plus the shared execution
// state. Construct with NewServer, mount via Handler, stop via Shutdown.
type Server struct {
	sess    *bench.Session
	workers int
	exec    func(ctx context.Context, p bench.SweepPoint, key resultstore.Key) bench.Outcome
	sem     chan struct{}

	// ctx is the server's lifetime: every flight's context derives from
	// it, and Shutdown cancels it with errShutdown as the cause.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	inflight map[resultstore.Key]*flight

	jobsStarted  int64
	jobsFinished int64
	coalesced    int64
	records      [bench.StatusShutdown + 1]int64 // of finished jobs, by status
}

// NewServer builds a Server with cfg.
func NewServer(cfg Config) *Server {
	sess := cfg.Session
	if sess == nil {
		sess = bench.Default()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = sess.Parallelism()
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	exec := func(ctx context.Context, p bench.SweepPoint, key resultstore.Key) bench.Outcome {
		return sess.Execute(ctx, p, &key)
	}
	if cfg.Exec != nil {
		exec = func(_ context.Context, p bench.SweepPoint, key resultstore.Key) bench.Outcome {
			res, err := cfg.Exec(p)
			if err != nil {
				return bench.Outcome{Key: key, Status: bench.StatusFailed, Err: err}
			}
			o := bench.Outcome{Key: key, Status: bench.StatusSimulated, Result: &res}
			if res.Cached {
				o.Status = bench.StatusHit
			}
			return o
		}
	}
	return &Server{
		sess:     sess,
		workers:  workers,
		exec:     exec,
		sem:      make(chan struct{}, workers),
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[resultstore.Key]*flight),
	}
}

// Handler returns the daemon's routing table (Go 1.22 method+pattern
// mux), suitable for http.Server.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Shutdown makes every queued and in-flight point fail fast: it cancels
// the server's context and with it every flight's, so slot acquisitions
// abort with errShutdown and running simulations stop within one
// advance. Safe to call more than once.
func (s *Server) Shutdown() { s.cancel(errShutdown) }

// handleRun streams one PointUpdate per finished point, then tallies the
// job's records into the stats and writes a terminal summary record. A
// fixed set of workers per job pulls point indexes,
// so a job of any size costs at most 2×Workers goroutines; the extra
// Workers beyond the server-wide slots keep a job moving while some of
// its points wait on flights that other jobs run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	points, code, err := decodeJob(http.MaxBytesReader(w, r.Body, MaxJobBytes))
	if err != nil {
		http.Error(w, "bad job: "+err.Error(), code)
		return
	}
	if len(points) == 0 {
		http.Error(w, "bad job: no points", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.jobsStarted++
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Workers send the index of each outcome they store, on a channel
	// sized to the job so no send blocks, even after the client left.
	outs := make([]bench.Outcome, len(points))
	updates := make(chan int, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(points), 2*s.workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				outs[i] = s.execute(r.Context(), points[i].SweepPoint, points[i].canon)
				updates <- i
			}
		}()
	}

	// One buffer per stream holds each line until it is written.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var n [len(s.records)]int64
	var u PointUpdate
	var writeErr error
	for range points {
		i := <-updates
		o := &outs[i]
		if o.Err != nil || !o.Coalesced {
			n[o.Status]++ // a coalesced delivery ran in another's flight
		}
		if writeErr != nil {
			// Client went away. Its request context is done, so each
			// point it alone held is cancelled and not stored; points
			// other requests still hold run on for them.
			continue
		}
		u = pointUpdate(i, points[i].Name(), o)
		_, writeErr = w.Write(line(&buf, enc, &u, o.Wire))
		// Flush only when the queue has drained: records that are
		// already waiting go out in the same write, and a lone slow
		// point still reaches the client at once.
		if writeErr == nil && flusher != nil && len(updates) == 0 {
			flusher.Flush()
		}
	}
	wg.Wait()
	s.mu.Lock()
	s.jobsFinished++
	for st, c := range n {
		s.records[st] += c
	}
	s.mu.Unlock()
	u = PointUpdate{Done: true, Errors: int(n[bench.StatusFailed] + n[bench.StatusCancelled] + n[bench.StatusShutdown])}
	_, _ = w.Write(line(&buf, enc, &u, nil))
}

// pointUpdate is point idx's stream record for outcome o. A done
// record's result is not in it: line splices o.Wire in.
func pointUpdate(idx int, name string, o *bench.Outcome) PointUpdate {
	if o.Err != nil {
		return PointUpdate{Index: idx, Name: name, Status: "error", Error: o.Err.Error()}
	}
	u := PointUpdate{Index: idx, Name: name, Status: "done", Cached: o.Status == bench.StatusHit, Coalesced: o.Coalesced}
	if o.PutErr != nil {
		u.PutError = o.PutErr.Error()
	}
	return u
}

// line renders u as one NDJSON line in buf, which enc writes to, with
// wire, a done record's result as JSON, spliced in before the closing
// brace. "result" is the last non-empty field of a done record, so the
// line is byte for byte what json.Encoder writes for the whole
// PointUpdate, without re-encoding the stored bytes. wire is only read.
func line(buf *bytes.Buffer, enc *json.Encoder, u *PointUpdate, wire []byte) []byte {
	buf.Reset()
	_ = enc.Encode(u) // plain fields into a bytes.Buffer: cannot fail
	if wire != nil {
		buf.Truncate(buf.Len() - len("}\n"))
		buf.WriteString(`,"result":`)
		buf.Write(wire)
		buf.WriteString("}\n")
	}
	return buf.Bytes()
}

// execute holds p's flight: the first request for its key runs it on
// its own goroutine, the others wait on done and are marked Coalesced.
// A holder whose request ends leaves (the running one through
// context.AfterFunc). config is p.Config's JSON (bench.PointKeyWith). A
// delivered outcome's Wire is the point's ResultData as JSON.
func (s *Server) execute(ctx context.Context, p bench.SweepPoint, config []byte) bench.Outcome {
	key, err := bench.PointKeyWith(p, config)
	if err != nil {
		// Unkeyable points (unknown workload) can't coalesce; report the
		// error directly rather than simulating something undefined.
		return bench.Outcome{Status: bench.StatusFailed, Err: err}
	}

	var o bench.Outcome
	s.mu.Lock()
	if f := s.inflight[key]; f != nil {
		f.refs++
		s.coalesced++
		s.mu.Unlock()
		select {
		case <-f.done:
			o = f.out
		case <-ctx.Done():
			o = bench.Outcome{Key: key, Status: bench.StatusCancelled, Err: ctx.Err()}
		}
		f.leave()
		o.Coalesced = true
	} else {
		f := &flight{key: key, srv: s, refs: 1, done: make(chan struct{})}
		f.ctx, f.cancel = context.WithCancel(s.ctx)
		s.inflight[key] = f
		s.mu.Unlock()

		stop := context.AfterFunc(ctx, f.leave)
		f.run(p)
		if stop() {
			f.leave()
		}
		o = f.out
	}
	if o.Status == bench.StatusFailed && ctx.Err() != nil {
		o.Status = bench.StatusCancelled // this holder's request ended first
	}
	return o
}

// run executes the flight's point while holding a worker slot. A
// flight stopped before or while it ran ends cancelled, or in shutdown
// when its context's cause is errShutdown.
func (f *flight) run(p bench.SweepPoint) {
	defer close(f.done)
	if f.srv.acquire(f.ctx) {
		f.out = f.srv.runPoint(f.ctx, p, f.key)
		<-f.srv.sem
	} else {
		f.out = bench.Outcome{Key: f.key, Status: bench.StatusCancelled, Err: context.Cause(f.ctx)}
	}
	switch {
	case f.out.Status == bench.StatusCancelled && context.Cause(f.ctx) == errShutdown:
		f.out.Status = bench.StatusShutdown
	case f.out.Err == nil && f.out.Wire == nil:
		// Simulated without a store, or by a Config.Exec executor.
		var err error
		if f.out.Wire, err = json.Marshal(f.out.Result.Data()); err != nil {
			f.out.Status, f.out.Err = bench.StatusFailed, err
		}
	}
}

// acquire takes a worker slot unless ctx ends first. The stop check
// comes first on its own so a cancelled flight never starts, even when
// a slot happens to be free; like a free slot, it leaves ctx's Done
// channel unmade.
func (s *Server) acquire(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default: // wait for a slot
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// leave drops one holder. The last detaches the flight from the map, so
// no new request joins it, and cancels its context in the same critical
// section: a queued flight then never starts, and a running simulation
// stops within one advance.
func (f *flight) leave() {
	s := f.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.refs--; f.refs == 0 {
		delete(s.inflight, f.key)
		f.cancel()
	}
}

// runPoint calls the executor, turning a panic into a failure of this
// point alone. The error carries the point's content address and the
// stack, so the failure reproduces with one command.
func (s *Server) runPoint(ctx context.Context, p bench.SweepPoint, key resultstore.Key) (o bench.Outcome) {
	defer func() {
		if v := recover(); v != nil {
			o = bench.Outcome{Key: key, Status: bench.StatusFailed,
				Err: fmt.Errorf("panic executing point %s: %v\n%s", key, v, debug.Stack())}
		}
	}()
	return s.exec(ctx, p, key)
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		Workers:         s.workers,
		JobsStarted:     s.jobsStarted,
		JobsFinished:    s.jobsFinished,
		PointsExecuted:  s.records[bench.StatusSimulated] + s.records[bench.StatusHit],
		PointsCoalesced: s.coalesced,
		PointsFailed:    s.records[bench.StatusFailed],
		PointsCancelled: s.records[bench.StatusCancelled] + s.records[bench.StatusShutdown],
		Inflight:        len(s.inflight),
	}
	s.mu.Unlock()
	st.StoreCounts, st.StoreBySection = s.sess.StoreCounts()
	st.StorePutErrors, _ = s.sess.PutErrors()
	if rs := s.sess.Store(); rs != nil {
		stats := rs.Stats()
		st.Store = &stats
	}
	st.BuildCacheHits, st.BuildCacheMisses = s.sess.BuildCacheStats()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	st := s.Stats()
	_ = enc.Encode(&st)
}
