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
	Cached    bool              `json:"cached,omitempty"`
	Coalesced bool              `json:"coalesced,omitempty"`
	Error     string            `json:"error,omitempty"`
	Result    *bench.ResultData `json:"result,omitempty"`

	// Done marks the terminal summary record of the stream.
	Done   bool `json:"done,omitempty"`
	Errors int  `json:"errors,omitempty"`
}

// ServerStats is the GET /v1/stats document.
type ServerStats struct {
	Workers         int   `json:"workers"`
	JobsStarted     int64 `json:"jobs_started"`
	JobsFinished    int64 `json:"jobs_finished"`
	PointsExecuted  int64 `json:"points_executed"`
	PointsCoalesced int64 `json:"points_coalesced"`
	PointsFailed    int64 `json:"points_failed"`
	// PointsCancelled counts error records of points whose own request
	// ended first (its client went away); they are not failures.
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
// requests hold. Its result is the point's ResultData as JSON (wire),
// possibly the store's own read-only slice. refs counts the requests
// holding it; the last to leave detaches it and cancels ctx, the
// context the flight runs under.
type flight struct {
	key    resultstore.Key
	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc
	refs   int // guarded by srv.mu
	done   chan struct{}
	wire   []byte
	cached bool
	err    error
}

// record is one point's stream record: the envelope, and the result
// bytes spliced in as its "result" field when the point is done.
// cancelled marks an error record whose request had already ended.
type record struct {
	u         PointUpdate
	wire      []byte
	cancelled bool
}

// Server is the daemon's HTTP handler set plus the shared execution
// state. Construct with NewServer, mount via Handler, stop via Shutdown.
type Server struct {
	sess    *bench.Session
	workers int
	exec    func(ctx context.Context, p bench.SweepPoint, key resultstore.Key) (bench.Outcome, error)
	sem     chan struct{}

	// ctx is the server's lifetime: every flight's context derives from
	// it, and Shutdown cancels it with errShutdown as the cause.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	inflight map[resultstore.Key]*flight

	jobsStarted  int64
	jobsFinished int64
	executed     int64
	coalesced    int64
	failed       int64
	cancelled    int64
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
	exec := func(ctx context.Context, p bench.SweepPoint, key resultstore.Key) (bench.Outcome, error) {
		return sess.Execute(ctx, p, &key)
	}
	if cfg.Exec != nil {
		exec = func(_ context.Context, p bench.SweepPoint, _ resultstore.Key) (bench.Outcome, error) {
			res, err := cfg.Exec(p)
			return bench.Outcome{Result: res}, err
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

// handleRun streams one PointUpdate per finished point, then a terminal
// summary record. A fixed set of workers per job pulls point indexes,
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

	// Sized to the job so no worker ever blocks on a send, even after
	// the client has gone away.
	updates := make(chan record, len(points))
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
				updates <- s.runOne(r.Context(), i, &points[i])
			}
		}()
	}

	// One buffer per stream holds each line until it is written.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	errs, cancelled := 0, 0
	var writeErr error
	for range points {
		rec := <-updates
		if rec.u.Status == "error" {
			errs++
			if rec.cancelled {
				cancelled++
			}
		}
		if writeErr != nil {
			// Client went away. Its request context is done, so each
			// point it alone held is cancelled and not stored; points
			// other requests still hold run on for them.
			continue
		}
		_, writeErr = w.Write(rec.line(&buf, enc))
		// Flush only when the queue has drained: records that are
		// already waiting go out in the same write, and a lone slow
		// point still reaches the client at once.
		if writeErr == nil && flusher != nil && len(updates) == 0 {
			flusher.Flush()
		}
	}
	wg.Wait()
	last := record{u: PointUpdate{Done: true, Errors: errs}}
	_, _ = w.Write(last.line(&buf, enc))

	s.mu.Lock()
	s.jobsFinished++
	s.failed += int64(errs - cancelled)
	s.cancelled += int64(cancelled)
	s.mu.Unlock()
}

// line renders rec as one NDJSON line in buf, which enc writes to. A
// done record's envelope is encoded without its result, and the wire
// bytes are spliced in before the closing brace. "result" is the last
// non-empty field of a done record, so the line is byte for byte what
// json.Encoder writes for the whole PointUpdate, without decoding and
// re-encoding the stored bytes. The wire slice is only read.
func (rec *record) line(buf *bytes.Buffer, enc *json.Encoder) []byte {
	buf.Reset()
	_ = enc.Encode(&rec.u) // plain fields into a bytes.Buffer: cannot fail
	if rec.wire != nil {
		buf.Truncate(buf.Len() - len("}\n"))
		buf.WriteString(`,"result":`)
		buf.Write(rec.wire)
		buf.WriteString("}\n")
	}
	return buf.Bytes()
}

// runOne executes one point with cross-request coalescing.
func (s *Server) runOne(ctx context.Context, idx int, p *jobPoint) record {
	rec := record{u: PointUpdate{Index: idx, Name: p.Name()}}
	wire, cached, coalesced, err := s.execute(ctx, p.SweepPoint, p.canon)
	if err != nil {
		rec.u.Status = "error"
		rec.u.Error = err.Error()
		rec.cancelled = ctx.Err() != nil
		return rec
	}
	rec.u.Status = "done"
	rec.u.Cached = cached
	rec.u.Coalesced = coalesced
	rec.wire = wire
	return rec
}

// execute runs p, or holds an identical in-flight execution when one
// exists (coalescing, reported by coalesced). config is p.Config's JSON
// (see bench.PointKeyWith). wire is the point's ResultData as JSON and
// cached reports a store hit.
//
// Every request for a key holds its flight equally. The first runs it
// on its own goroutine, under the flight's context; the others wait on
// done. A holder whose request ends leaves (the running one through
// context.AfterFunc), and the flight runs on while anyone holds it.
func (s *Server) execute(ctx context.Context, p bench.SweepPoint, config []byte) (wire []byte, cached, coalesced bool, err error) {
	key, kerr := bench.PointKeyWith(p, config)
	if kerr != nil {
		// Unkeyable points (unknown workload) can't coalesce; report the
		// error directly rather than simulating something undefined.
		return nil, false, false, kerr
	}

	s.mu.Lock()
	if f := s.inflight[key]; f != nil {
		f.refs++
		s.coalesced++
		s.mu.Unlock()
		defer f.leave()
		select {
		case <-f.done:
			return f.wire, f.cached, true, f.err
		case <-ctx.Done():
			return nil, false, true, ctx.Err()
		}
	}
	f := &flight{key: key, srv: s, refs: 1, done: make(chan struct{})}
	f.ctx, f.cancel = context.WithCancel(s.ctx)
	s.inflight[key] = f
	s.mu.Unlock()

	stop := context.AfterFunc(ctx, f.leave)
	f.run(p)
	if stop() {
		f.leave()
	}
	return f.wire, f.cached, false, f.err
}

// run executes the flight's point while holding a worker slot, then
// publishes the result by closing done. The stop check comes first on
// its own so a cancelled flight never starts, even when a slot happens
// to be free; like a free slot, it leaves the flight's Done channel
// unmade. A flight stopped before it ran fails with its context's
// cause: errShutdown, or context.Canceled when its last holder left.
func (f *flight) run(p bench.SweepPoint) {
	s := f.srv
	defer close(f.done)
	if f.ctx.Err() != nil {
		f.err = context.Cause(f.ctx)
		return
	}
	select {
	case s.sem <- struct{}{}:
	default: // wait for a slot
		select {
		case s.sem <- struct{}{}:
		case <-f.ctx.Done():
			f.err = context.Cause(f.ctx)
			return
		}
	}
	var o bench.Outcome
	if o, f.err = s.runPoint(f.ctx, p, f.key); f.err == nil {
		f.wire, f.err = o.JSON()
		f.cached = o.Result.Cached
	}
	<-s.sem
	if f.err == nil {
		s.mu.Lock()
		s.executed++
		s.mu.Unlock()
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

// runPoint calls the executor, turning a panic into an error for this
// point alone. The error carries the point's content address and the
// stack, so the failure reproduces with one command.
func (s *Server) runPoint(ctx context.Context, p bench.SweepPoint, key resultstore.Key) (o bench.Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic executing point %s: %v\n%s", key, v, debug.Stack())
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
		PointsExecuted:  s.executed,
		PointsCoalesced: s.coalesced,
		PointsFailed:    s.failed,
		PointsCancelled: s.cancelled,
		Inflight:        len(s.inflight),
	}
	s.mu.Unlock()
	st.StoreCounts, st.StoreBySection = s.sess.StoreCounts()
	st.StorePutErrors = s.sess.PutErrors()
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
