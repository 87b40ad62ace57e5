package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"straight/internal/cores"
	"straight/internal/program"
	"straight/internal/resultstore"
	"straight/internal/uarch"
)

// Session is one run of the experiment harness. It owns everything
// point execution shares: the build cache, the idle cycle cores, the
// result store and its hit/miss/recompute counters, the failed store
// writes, the journal, the worker count, the Remote and the trace
// target. Two sessions share none of it, so each main builds its own
// and tests need no resets. Construct with NewSession; the figure
// functions are its methods.
type Session struct {
	// Workers bounds the points Run executes at once; <= 0 means
	// GOMAXPROCS. Set it, Remote and Trace before the first Run.
	Workers int
	// Remote, when set, executes every Run batch instead of this
	// process (cmd/experiments -server).
	Remote Remote
	// Trace, when set, names the one point this session traces.
	Trace *TraceTarget

	ctx    context.Context // cancelled by Interrupt
	cancel context.CancelFunc

	store        atomic.Pointer[resultstore.Store]
	builds       sync.Map   // buildKey -> func() (*program.Image, error)
	cores        cores.Pool // every untraced cycle point's core
	buildCalls   atomic.Int64
	buildMisses  atomic.Int64
	traceClaimed atomic.Bool

	mu          sync.Mutex // guards the counters and the journal
	totals      StoreCounts
	bySection   map[string]*StoreCounts
	putErrors   int64
	firstPutErr error
	journal     []PointRecord
}

// NewSession returns a session with no store, an empty build cache and
// GOMAXPROCS workers.
func NewSession() *Session {
	ctx, cancel := context.WithCancel(context.Background())
	return &Session{ctx: ctx, cancel: cancel, bySection: make(map[string]*StoreCounts)}
}

// defaultSession backs the package-level wrappers that benchmark/
// compiles against (DESIGN.md §15).
var defaultSession = NewSession()

// Default returns the session behind ExecutePoint, SetStore,
// ResetBuildCache, BuildSTRAIGHT and BuildRISCV.
func Default() *Session { return defaultSession }

// ExecutePoint runs one point in the default session, without
// journaling.
func ExecutePoint(p SweepPoint) (PointResult, error) {
	o := defaultSession.Execute(context.Background(), p, nil)
	return o.PointResult(p)
}

// SetStore installs (or, with nil, removes) the default session's
// result store.
func SetStore(st *resultstore.Store) { defaultSession.SetStore(st) }

// ResetBuildCache drops every image the default session cached and
// zeroes its build counters (not safe concurrently with in-flight
// builds). Another session starts with an empty cache.
func ResetBuildCache() {
	defaultSession.builds = sync.Map{}
	defaultSession.buildCalls.Store(0)
	defaultSession.buildMisses.Store(0)
}

// SetStore installs (or, with nil, removes) the result store every
// executed point consults.
func (s *Session) SetStore(st *resultstore.Store) { s.store.Store(st) }

// Store returns the installed result store (nil = none).
func (s *Session) Store() *resultstore.Store { return s.store.Load() }

// Parallelism reports the worker count Run uses.
func (s *Session) Parallelism() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Interrupt cancels this session's in-flight and queued points: they
// fail with uarch.ErrInterrupted. A session stays interrupted.
func (s *Session) Interrupt() { s.cancel() }

// stopFlag returns an interrupt flag that cancelling ctx or the session
// raises, and the function that unregisters it.
func (s *Session) stopFlag(ctx context.Context) (*atomic.Bool, func()) {
	stop := new(atomic.Bool)
	raise := func() { stop.Store(true) }
	a, b := context.AfterFunc(ctx, raise), context.AfterFunc(s.ctx, raise)
	return stop, func() { a(); b() }
}

// ---- build cache ----

// BuildCacheStats returns the cumulative build-cache counters: hits is
// the number of Build* calls served from an already-built (or in-flight)
// image, misses the number of actual compilations.
func (s *Session) BuildCacheStats() (hits, misses int64) {
	m := s.buildMisses.Load()
	return s.buildCalls.Load() - m, m
}

// buildOnce runs f exactly once per key, concurrent callers included:
// the first caller's build fills the key's slot, and every caller
// (concurrent or later) blocks on it and gets the same immutable image.
func (s *Session) buildOnce(key buildKey, f func() (*program.Image, error)) (*program.Image, error) {
	s.buildCalls.Add(1)
	build, _ := s.builds.LoadOrStore(key, sync.OnceValues(func() (*program.Image, error) {
		s.buildMisses.Add(1)
		return f()
	}))
	return build.(func() (*program.Image, error))()
}

// ---- store counters ----

// StoreCounts aggregates result-store activity: Hits were served
// without simulation, Misses were looked up and absent, Recomputes were
// actually simulated (every miss recomputes; a forced recompute — no
// store installed, or a traced point — counts here without a miss).
type StoreCounts struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Recomputes int64 `json:"recomputes"`
}

func (s *Session) bump(section string, f func(*StoreCounts)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.totals)
	sc := s.bySection[section]
	if sc == nil {
		sc = &StoreCounts{}
		s.bySection[section] = sc
	}
	f(sc)
}

// StoreCounts returns the cumulative counters and a copy of the
// per-section ones (keyed by SweepPoint.Section).
func (s *Session) StoreCounts() (StoreCounts, map[string]StoreCounts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	by := make(map[string]StoreCounts, len(s.bySection))
	for k, v := range s.bySection {
		by[k] = *v
	}
	return s.totals, by
}

// PutErrors reports how many computed results could not be stored,
// and the first of those errors.
func (s *Session) PutErrors() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putErrors, s.firstPutErr
}

// ---- execution ----

// Status is how a point's execution ended.
type Status uint8

const (
	// StatusSimulated: the point was built and simulated; the result is
	// delivered even when storing it failed (Outcome.PutErr).
	StatusSimulated Status = iota
	// StatusHit: the result was served from the store, unsimulated.
	StatusHit
	// StatusFailed: the point itself failed (build, core or executor).
	StatusFailed
	// StatusCancelled: the point was stopped because no one wanted it
	// any more: its context or session was done, or, behind straightd,
	// its request ended first.
	StatusCancelled
	// StatusShutdown: the daemon serving the point was shut down.
	StatusShutdown
)

func (s Status) String() string {
	return [...]string{"simulated", "hit", "failed", "cancelled", "shutdown"}[s]
}

// Outcome is the one record of a point's fate, from Session.Execute to
// a straightd /v1/run record. Err is nil exactly when the status is
// StatusSimulated or StatusHit.
type Outcome struct {
	Status Status
	// Coalesced: this holder joined another request's flight (straightd
	// only). Status stays the flight's, so a coalesced hit is a hit.
	Coalesced bool
	// Key is the point's content address, when it was given or derived
	// for the store.
	Key resultstore.Key
	// Wire is the point's ResultData as JSON when Execute read it from
	// the store (the store's own bytes: read-only) or offered it to it.
	Wire []byte
	// Result is set for a simulated point; a hit's result is its Wire.
	Result *PointResult
	// PutErr is why a simulated result could not be stored.
	PutErr error
	// Err is why the point was not delivered; errors.Is finds its cause
	// (uarch.ErrInterrupted for a stopped simulation).
	Err error
}

// PointResult returns point p's result: o.Err when it failed, else the
// simulated result or the decoded store hit.
func (o *Outcome) PointResult(p SweepPoint) (PointResult, error) {
	if o.Err != nil {
		return PointResult{}, o.Err
	}
	if o.Result != nil {
		return *o.Result, nil
	}
	var d ResultData
	if err := json.Unmarshal(o.Wire, &d); err != nil {
		return PointResult{}, err
	}
	return d.Result(p, o.Status == StatusHit), nil
}

// Execute runs one point: it consults the store under key (nil derives
// PointKey(p) when a store is installed), simulates on a miss or when
// the point is the trace target, and stores what it computed. A stored
// entry is checked (decoded, Stats.Check) on its first read only; an
// entry that fails is recomputed and superseded. Cancelling ctx, or
// Interrupt, stops the point with uarch.ErrInterrupted and
// StatusCancelled.
func (s *Session) Execute(ctx context.Context, p SweepPoint, key *resultstore.Key) Outcome {
	var o Outcome
	if key != nil {
		o.Key = *key
	}
	// Err, not Done, for ctx: a per-point context (straightd's flights)
	// would allocate its Done channel just for this check. The session's
	// channel is made once, and Done, unlike Err, takes no lock.
	if ctx.Err() != nil {
		o.Status, o.Err = StatusCancelled, uarch.ErrInterrupted
		return o
	}
	select {
	case <-s.ctx.Done():
		o.Status, o.Err = StatusCancelled, uarch.ErrInterrupted
		return o
	default:
	}
	st := s.store.Load()
	tgt := s.claimTrace(p)
	if tgt != nil {
		st = nil // a traced point always simulates and is never stored
	}
	if st != nil && key == nil {
		var err error
		if o.Key, err = PointKey(p); err != nil {
			st = nil // unkeyable: the build reports the error
		}
	}
	if st != nil {
		if raw, ok := st.GetChecked(o.Key, func(raw []byte) error { return checkStored(p, raw) }); ok {
			s.bump(p.Section, func(c *StoreCounts) { c.Hits++ })
			o.Status, o.Wire = StatusHit, raw
			return o
		}
		s.bump(p.Section, func(c *StoreCounts) { c.Misses++ })
	}
	res, err := s.simulatePoint(ctx, p, tgt)
	if err != nil {
		o.Status, o.Err = StatusFailed, err
		if ctx.Err() != nil || s.ctx.Err() != nil {
			o.Status = StatusCancelled
		}
		return o
	}
	s.bump(p.Section, func(c *StoreCounts) { c.Recomputes++ })
	o.Status, o.Result = StatusSimulated, &res
	if st == nil {
		return o
	}
	if o.Wire, err = json.Marshal(res.Data()); err != nil {
		return o // unencodable: computed, not stored
	}
	// A store write failure must not fail the science; the entry is
	// simply recomputed next time.
	if o.PutErr = st.Put(o.Key, o.Wire); o.PutErr != nil {
		s.mu.Lock()
		if s.putErrors++; s.firstPutErr == nil {
			s.firstPutErr = o.PutErr
		}
		s.mu.Unlock()
	}
	return o
}

// Remote executes a batch of sweep points somewhere other than this
// process — the straightd client is one, so cmd/experiments -server
// delegates simulation to the daemon. Implementations must return
// results in input order, and stop with uarch.ErrInterrupted once ctx
// (the session's: Interrupt cancels it) is done.
type Remote interface {
	RunContext(ctx context.Context, points []SweepPoint) ([]PointResult, error)
}

// Run executes every point — on the Remote when one is set, else on
// Parallelism() workers — and journals the results. Results come back
// in input order regardless of completion order, so callers assemble
// identical tables at any worker count. On failure the lowest-indexed
// error among the points that ran is returned; points already in flight
// finish, queued ones are skipped.
func (s *Session) Run(points []SweepPoint) ([]PointResult, error) {
	run := s.runLocal
	if s.Remote != nil {
		run = s.Remote.RunContext
	}
	results, err := run(s.ctx, points)
	if err != nil {
		return nil, err
	}
	s.record(results)
	return results, nil
}

func (s *Session) runLocal(ctx context.Context, points []SweepPoint) ([]PointResult, error) {
	results := make([]PointResult, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(s.Parallelism(), len(points)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(points) && !failed.Load(); i = int(next.Add(1)) - 1 {
				o := s.Execute(ctx, points[i], nil)
				var err error
				if results[i], err = o.PointResult(points[i]); err != nil {
					errs[i] = fmt.Errorf("%s: %w", points[i].Name(), err)
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Points skipped after a failure have no error, so the first one
	// found is the lowest-indexed among the points that ran.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ---- journal ----

// PointRecord is the machine-readable summary of one executed point
// (cmd/experiments -json emits these).
type PointRecord struct {
	Section     string  `json:"section"`
	Label       string  `json:"label"`
	Workload    string  `json:"workload"`
	Core        string  `json:"core"`
	Mode        string  `json:"mode,omitempty"`
	MaxDistance int     `json:"max_distance,omitempty"`
	Iters       int     `json:"iterations"`
	Config      string  `json:"config,omitempty"`
	Cycles      int64   `json:"cycles,omitempty"`
	Retired     uint64  `json:"retired"`
	IPC         float64 `json:"ipc,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`

	// Trace carries the Kanata log paths and windowed time series when
	// this point was the session's trace target.
	Trace *TraceRecord `json:"trace,omitempty"`
}

// record appends finished results to the journal in input order
// (called once per Run, after assembly, so the journal is deterministic
// up to wall-clock values).
func (s *Session) record(results []PointResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range results {
		p := r.Point
		rec := PointRecord{
			Section:     p.Section,
			Label:       p.Label,
			Workload:    string(p.Workload),
			Core:        string(p.Core),
			Iters:       p.Iters,
			Cycles:      r.Cycles,
			Retired:     r.Retired,
			IPC:         r.IPC,
			WallSeconds: r.Wall.Seconds(),
			Trace:       r.Trace,
		}
		if isa, _ := p.Core.isa(); isa == cores.ISAStraight {
			rec.Mode = string(p.Mode)
			rec.MaxDistance = p.MaxDist
		}
		if p.Core.Cycle() {
			rec.Config = p.Config.Name
		}
		s.journal = append(s.journal, rec)
	}
}

// Journal returns a copy of every point Run executed, in submission
// order.
func (s *Session) Journal() []PointRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]PointRecord(nil), s.journal...)
}
