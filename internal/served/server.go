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
	// Workers bounds concurrently simulating points across ALL requests;
	// <= 0 means bench.Parallelism().
	Workers int
	// Exec runs one point; nil means bench.ExecuteWire with the key
	// the server already derived. Tests inject a controllable executor
	// to make coalescing windows deterministic.
	Exec func(p bench.SweepPoint) (bench.PointResult, error)
}

// errShutdown fails points that would start after Shutdown.
var errShutdown = errors.New("server shutting down")

// flight is one in-flight point execution that concurrent identical
// requests attach to. Its result is the point's ResultData as JSON
// (wire), possibly the store's own read-only slice. Flights are pooled;
// refs counts every party holding the pointer (owner + waiters) and the
// last release returns it to the pool.
type flight struct {
	done   chan struct{}
	wire   []byte
	cached bool
	err    error
	refs   int
}

// Reset restores a flight for pool reuse (resetcomplete-checked).
func (f *flight) Reset() {
	f.done = nil
	f.wire = nil
	f.cached = false
	f.err = nil
	f.refs = 0
}

// record is one point's stream record: the envelope, and the result
// bytes spliced in as its "result" field when the point is done.
type record struct {
	u    PointUpdate
	wire []byte
}

// Server is the daemon's HTTP handler set plus the shared execution
// state. Construct with NewServer, mount via Handler, stop via Shutdown.
type Server struct {
	workers int
	exec    func(p bench.SweepPoint, key resultstore.Key) (wire []byte, cached bool, err error)
	sem     chan struct{}

	quitOnce sync.Once
	quit     chan struct{}

	mu         sync.Mutex
	inflight   map[resultstore.Key]*flight
	flightPool sync.Pool

	jobsStarted  int64
	jobsFinished int64
	executed     int64
	coalesced    int64
	failed       int64
}

// NewServer builds a Server with cfg.
func NewServer(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = bench.Parallelism()
	}
	exec := bench.ExecuteWire
	if cfg.Exec != nil {
		exec = func(p bench.SweepPoint, _ resultstore.Key) ([]byte, bool, error) {
			res, err := cfg.Exec(p)
			if err != nil {
				return nil, false, err
			}
			wire, err := json.Marshal(res.Data())
			return wire, res.Cached, err
		}
	}
	s := &Server{
		workers:  workers,
		exec:     exec,
		sem:      make(chan struct{}, workers),
		quit:     make(chan struct{}),
		inflight: make(map[resultstore.Key]*flight),
	}
	s.flightPool.New = func() any { return new(flight) }
	return s
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

// Shutdown makes every queued and in-flight point fail fast: new slot
// acquisitions abort, and bench.Interrupt() (called by the daemon's
// signal handler alongside this) cancels running simulations. Safe to
// call more than once.
func (s *Server) Shutdown() {
	s.quitOnce.Do(func() { close(s.quit) })
}

// handleRun streams one PointUpdate per finished point, then a terminal
// summary record. A fixed set of workers per job pulls point indexes,
// so a job of any size costs at most 2×Workers goroutines; the extra
// Workers beyond the server-wide slots keep a job moving while some of
// its points wait on flights owned by other jobs.
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
	errs := 0
	var writeErr error
	for range points {
		rec := <-updates
		if rec.u.Status == "error" {
			errs++
		}
		if writeErr != nil {
			// Client went away; the workers still finish (results land in
			// the store, and coalesced peers are unaffected).
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
	s.failed += int64(errs)
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
		return rec
	}
	rec.u.Status = "done"
	rec.u.Cached = cached
	rec.u.Coalesced = coalesced
	rec.wire = wire
	return rec
}

// execute runs p, attaching to an identical in-flight execution when
// one exists (coalescing, reported by coalesced). config is p.Config's
// JSON (see bench.PointKeyWith). wire is the point's ResultData as JSON
// and cached reports a store hit.
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
		wire, cached, err = s.await(ctx, f)
		return wire, cached, true, err
	}
	f := s.flightPool.Get().(*flight)
	f.done = make(chan struct{})
	f.refs = 1
	s.inflight[key] = f
	s.mu.Unlock()

	// Bounded worker pool: simulate only while holding a slot.
	if f.err = s.acquire(ctx, key, f); f.err == nil {
		f.wire, f.cached, f.err = s.run(p, key)
		<-s.sem
	}
	if f.err == nil {
		s.mu.Lock()
		s.executed++
		s.mu.Unlock()
	}
	close(f.done)

	// Detach from the map first so no new waiter joins a retired flight,
	// then drop the owner's reference.
	s.mu.Lock()
	if s.inflight[key] == f {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
	wire, cached, err = f.wire, f.cached, f.err
	s.release(f)
	return wire, cached, false, err
}

// acquire takes a worker slot for the owner of flight f. The quit check
// comes first on its own so a stopped server never starts new work even
// when a slot happens to be free. If the owner's request ends while it
// queues, the owner hands the flight to the coalesced waiters still
// holding it: it queues on in their name (only quit aborts), and the
// flight completes as a running one does when its waiters leave. With
// no one else holding the flight, the owner fails it, detaching it from
// the map in the same critical section so no new waiter can join it.
func (s *Server) acquire(ctx context.Context, key resultstore.Key, f *flight) error {
	select {
	case <-s.quit:
		return errShutdown
	default:
	}
	gone := ctx.Done()
	for {
		select {
		case s.sem <- struct{}{}:
			return nil
		case <-s.quit:
			return errShutdown
		case <-gone:
			s.mu.Lock()
			shared := f.refs > 1
			if !shared && s.inflight[key] == f {
				delete(s.inflight, key)
			}
			s.mu.Unlock()
			if !shared {
				return ctx.Err()
			}
			gone = nil
		}
	}
}

// run calls the executor, turning a panic into an error for this point
// alone. The error carries the point's content address and the stack,
// so the failure reproduces with one command.
func (s *Server) run(p bench.SweepPoint, key resultstore.Key) (wire []byte, cached bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			wire, cached, err = nil, false, fmt.Errorf("panic executing point %s: %v\n%s", key, v, debug.Stack())
		}
	}()
	return s.exec(p, key)
}

// await blocks on another request's flight for the same key.
func (s *Server) await(ctx context.Context, f *flight) ([]byte, bool, error) {
	select {
	case <-f.done:
		wire, cached, err := f.wire, f.cached, f.err
		s.release(f)
		return wire, cached, err
	case <-ctx.Done():
		// Abandon the flight; the owner still completes it and the result
		// still lands in the store.
		s.release(f)
		return nil, false, ctx.Err()
	}
}

// release drops one reference; the last holder resets and pools the
// flight. Callers must have finished reading f's results.
func (s *Server) release(f *flight) {
	s.mu.Lock()
	f.refs--
	last := f.refs == 0
	s.mu.Unlock()
	if last {
		f.Reset()
		s.flightPool.Put(f)
	}
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
		Inflight:        len(s.inflight),
	}
	s.mu.Unlock()
	st.StoreCounts = bench.StoreTotals()
	st.StoreBySection = bench.StoreCountsBySection()
	st.StorePutErrors = bench.StorePutErrors()
	if rs := bench.ResultStore(); rs != nil {
		stats := rs.Stats()
		st.Store = &stats
	}
	st.BuildCacheHits, st.BuildCacheMisses = bench.BuildCacheStats()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	st := s.Stats()
	_ = enc.Encode(&st)
}
