package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// newStore opens a fresh result store for the test, closed at cleanup.
func newStore(t *testing.T, salt uint64) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "results.log"), resultstore.Options{Salt: salt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// sessionOn returns a fresh session over st: its counters and journal
// start empty, while st keeps every entry earlier sessions stored.
func sessionOn(st *resultstore.Store) *Session {
	s := NewSession()
	s.SetStore(st)
	return s
}

// totals returns a session's cumulative store counters.
func totals(s *Session) StoreCounts {
	t, _ := s.StoreCounts()
	return t
}

func storePoints() []SweepPoint {
	return []SweepPoint{
		SSPoint("store-test", "fib/ss", workloads.MicroFib, 1, uarch.SS2Way()),
		StraightPoint("store-test", "fib/straight", workloads.MicroFib, 1, ModeREP, uarch.Straight2Way()),
		{Section: "store-test", Label: "fib/emu-riscv", Workload: workloads.MicroFib, Core: CoreEmuRISCV, Iters: 1},
		{Section: "store-test", Label: "fib/emu-straight", Workload: workloads.MicroFib, Core: CoreEmuStraight, Iters: 1, Mode: ModeREP, MaxDist: 31},
	}
}

// journalJSON renders the journal the way cmd/experiments -json does,
// so "byte-identical" below means what a user observes.
func journalJSON(t *testing.T, s *Session) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(s.Journal(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestStoreWarmRunIsByteIdenticalAndFree(t *testing.T) {
	st := newStore(t, 1)
	points := storePoints()

	cs := sessionOn(st)
	cold, err := cs.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	coldTotals := totals(cs)
	if coldTotals.Hits != 0 || coldTotals.Misses != int64(len(points)) || coldTotals.Recomputes != int64(len(points)) {
		t.Fatalf("cold totals = %+v, want 0 hits / %d misses / %d recomputes", coldTotals, len(points), len(points))
	}
	coldJSON := journalJSON(t, cs)

	ws := sessionOn(st)
	warm, err := ws.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	warmTotals := totals(ws)
	if warmTotals.Hits != int64(len(points)) || warmTotals.Recomputes != 0 {
		t.Fatalf("warm totals = %+v, want %d hits / 0 recomputes", warmTotals, len(points))
	}
	warmJSON := journalJSON(t, ws)
	if string(coldJSON) != string(warmJSON) {
		t.Fatalf("warm journal differs from cold:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
	}
	for i := range cold {
		if warm[i].Cached != true {
			t.Fatalf("point %d: warm result not marked cached", i)
		}
		c, w := cold[i], warm[i]
		c.Cached, w.Cached = false, false
		if !reflect.DeepEqual(c, w) {
			t.Fatalf("point %d: warm result differs from cold\ncold: %+v\nwarm: %+v", i, c, w)
		}
	}

	// Per-section attribution lands under the points' Section.
	_, bySec := ws.StoreCounts()
	if bySec["store-test"].Hits != int64(len(points)) {
		t.Fatalf("per-section counts = %+v", bySec)
	}
	if o := ws.Execute(context.Background(), points[0], nil); o.Status != StatusHit || o.Err != nil || o.Result != nil {
		t.Fatalf("warm Execute: status %v, err %v, result %v; want a hit served from the store's bytes", o.Status, o.Err, o.Result)
	}
}

func TestStoreDirtiesExactlyAffectedPoints(t *testing.T) {
	st := newStore(t, 1)
	points := storePoints()
	if _, err := sessionOn(st).Run(points); err != nil {
		t.Fatal(err)
	}
	// run executes points on a fresh session over st and returns its
	// counters.
	run := func(points []SweepPoint) StoreCounts {
		t.Helper()
		s := sessionOn(st)
		if _, err := s.Run(points); err != nil {
			t.Fatal(err)
		}
		return totals(s)
	}

	// Change one core Option on one point: only that point recomputes.
	dirty := make([]SweepPoint, len(points))
	copy(dirty, points)
	cfg := dirty[0].Config
	cfg.ROBSize += 8
	dirty[0].Config = cfg
	got := run(dirty)
	if got.Hits != int64(len(points)-1) || got.Recomputes != 1 {
		t.Fatalf("after config change: totals = %+v, want %d hits / 1 recompute", got, len(points)-1)
	}

	// Change the workload input (iteration count changes the generated
	// source): every point over that workload recomputes.
	bumped := make([]SweepPoint, len(points))
	copy(bumped, points)
	for i := range bumped {
		bumped[i].Iters = 2
	}
	got = run(bumped)
	if got.Hits != 0 || got.Recomputes != int64(len(points)) {
		t.Fatalf("after iters change: totals = %+v, want 0 hits / %d recomputes", got, len(points))
	}

	// Section/Label renames must NOT dirty anything: the same simulation
	// shown in another figure reuses the entry.
	renamed := make([]SweepPoint, len(points))
	copy(renamed, points)
	for i := range renamed {
		renamed[i].Section = "other-figure"
	}
	got = run(renamed)
	if got.Hits != int64(len(points)) || got.Recomputes != 0 {
		t.Fatalf("after relabel: totals = %+v, want all hits", got)
	}
}

func TestStoreSaltBumpInvalidates(t *testing.T) {
	st := newStore(t, 1)
	points := storePoints()
	if _, err := sessionOn(st).Run(points); err != nil {
		t.Fatal(err)
	}
	path := st.Path()
	st.Close()

	// Reopen with a bumped simulator version salt: the store wipes itself
	// and every point recomputes.
	st2, err := resultstore.Open(path, resultstore.Options{Salt: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Stats().Invalidated {
		t.Fatal("salt bump did not mark the store invalidated")
	}
	s := sessionOn(st2)
	if _, err := s.Run(points); err != nil {
		t.Fatal(err)
	}
	got := totals(s)
	if got.Hits != 0 || got.Recomputes != int64(len(points)) {
		t.Fatalf("after salt bump: totals = %+v, want 0 hits / %d recomputes", got, len(points))
	}
}

func TestStoreSkipsTracedPoints(t *testing.T) {
	st := newStore(t, 1)
	p := SSPoint("store-test", "traced", workloads.MicroFib, 1, uarch.SS2Way())

	traced := sessionOn(st)
	traced.Trace = &TraceTarget{Point: p.Name(), Path: filepath.Join(t.TempDir(), "trace.log")}
	res, err := traced.Run([]SweepPoint{p})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Trace == nil {
		t.Fatal("traced point did not produce a trace")
	}
	got := totals(traced)
	if got.Hits != 0 || got.Misses != 0 || got.Recomputes != 1 {
		t.Fatalf("traced point totals = %+v, want store bypass (0/0/1)", got)
	}

	// The traced run must not have been stored: a later plain run misses.
	plain := sessionOn(st)
	if _, err := plain.Run([]SweepPoint{p}); err != nil {
		t.Fatal(err)
	}
	got = totals(plain)
	if got.Misses != 1 || got.Recomputes != 1 {
		t.Fatalf("post-trace totals = %+v, want 1 miss / 1 recompute", got)
	}
}

func TestStoreRejectsDamagedEntry(t *testing.T) {
	st := newStore(t, 1)
	p := SSPoint("store-test", "damaged", workloads.MicroFib, 1, uarch.SS2Way())
	if _, err := sessionOn(st).Run([]SweepPoint{p}); err != nil {
		t.Fatal(err)
	}

	// Overwrite the entry with a payload that decodes but fails the
	// stats consistency check: the runner must recompute, not trust it.
	key, err := PointKey(p)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := st.Get(key)
	if !ok {
		t.Fatal("entry missing after run")
	}
	var d ResultData
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	d.Stats.Retired = d.Stats.Retired + 12345 // breaks Stats.Check
	bad, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, bad); err != nil {
		t.Fatal(err)
	}

	s := sessionOn(st)
	if _, err := s.Run([]SweepPoint{p}); err != nil {
		t.Fatal(err)
	}
	got := totals(s)
	if got.Hits != 0 || got.Recomputes != 1 {
		t.Fatalf("damaged entry totals = %+v, want recompute", got)
	}
	// The recompute replaced the damaged entry: next run hits again.
	s = sessionOn(st)
	if _, err := s.Run([]SweepPoint{p}); err != nil {
		t.Fatal(err)
	}
	if got := totals(s); got.Hits != 1 {
		t.Fatalf("repaired entry totals = %+v, want hit", got)
	}
}

// TestPointKeyPinned pins the content address of one point per kind of
// engine. A key that changes orphans every stored result, so a change
// here must be deliberate (and bump resultSchema if the derivation
// changed shape).
func TestPointKeyPinned(t *testing.T) {
	for _, c := range []struct {
		p    SweepPoint
		want string
	}{
		{StraightPoint("s", "l", workloads.Dhrystone, 200, ModeREP, uarch.Straight4Way()),
			"f7784b2b3d23083f8eb1aae98ee9a4c0f4b442de9f6f263457cfa137e128aa9f"},
		{SSPoint("s", "l", workloads.CoreMark, 1, uarch.SS4Way()),
			"3cf72ed3986cab135daf9a856bb78953b411ddf5b958cca12f1a049d6f541a3c"},
		{SweepPoint{Workload: workloads.MicroFib, Core: CoreEmuRISCV, Iters: 3},
			"57d19141a798083dd0e2df2407569509dc42b86cccc3a17c672ea28325d89247"},
	} {
		k, err := PointKey(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != c.want {
			t.Errorf("%s point key = %s, want %s", c.p.Core, k, c.want)
		}
	}
}

// keyPoints are PointKeyWith's two heaviest cases, the paper
// workloads on a cycle core, with their config JSON.
func keyPoints(tb testing.TB) map[string]SweepPoint {
	return map[string]SweepPoint{
		"dhrystone": StraightPoint("s", "l", workloads.Dhrystone, 200, ModeREP, uarch.Straight4Way()),
		"coremark":  SSPoint("s", "l", workloads.CoreMark, 1, uarch.SS4Way()),
	}
}

// TestPointKeyWithConfig checks that a supplied config JSON gives
// PointKey's key, and that such a key allocates no copy of the source:
// well under the 13.7 KB / 28.5 KB that rendering it took.
func TestPointKeyWithConfig(t *testing.T) {
	for name, p := range keyPoints(t) {
		cfg, err := json.Marshal(p.Config)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := PointKeyWith(p, cfg); err != nil || got != want {
			t.Fatalf("%s: PointKeyWith = %s, %v; want %s", name, got, err, want)
		}
		const n = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			PointKeyWith(p, cfg)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 512 {
			t.Errorf("%s: a key with its config JSON allocates %d B, want < 512", name, per)
		}
	}
}

// BenchmarkPointKey derives one key with the config JSON supplied, as
// the daemon does.
func BenchmarkPointKey(b *testing.B) {
	for name, p := range keyPoints(b) {
		cfg, err := json.Marshal(p.Config)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PointKeyWith(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countChecks replaces Execute's stored-entry check with one that
// counts its calls, for the rest of the test.
func countChecks(t *testing.T) *atomic.Int64 {
	var calls atomic.Int64
	saved := checkStored
	checkStored = func(p SweepPoint, raw []byte) error {
		calls.Add(1)
		return saved(p, raw)
	}
	t.Cleanup(func() { checkStored = saved })
	return &calls
}

// TestExecuteChecksOncePerEntry follows one cycle-core point through
// Execute with the key given, as the daemon calls it: a miss returns the
// stored bytes unchecked; hits return the store's bytes and check them
// on the first read only; a superseding Put and a reopened store each
// check again; a damaged entry is recomputed, never returned.
func TestExecuteChecksOncePerEntry(t *testing.T) {
	st := newStore(t, 1)
	s := sessionOn(st)
	calls := countChecks(t)
	p := SSPoint("store-test", "wire", workloads.MicroFib, 1, uarch.SS2Way())
	key, err := PointKey(p)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(wantCached bool, wantCalls int64) []byte {
		t.Helper()
		o := s.Execute(context.Background(), p, &key)
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if cached := o.Status == StatusHit; cached != wantCached {
			t.Fatalf("cached = %v, want %v", cached, wantCached)
		}
		wire := o.Wire
		if stored, _ := st.Get(key); !bytes.Equal(wire, stored) {
			t.Fatalf("wire bytes differ from the stored entry")
		}
		if n := calls.Load(); n != wantCalls {
			t.Fatalf("check ran %d times, want %d", n, wantCalls)
		}
		return wire
	}

	first := serve(false, 0)
	serve(true, 1)
	serve(true, 1)
	if got := totals(s); got != (StoreCounts{Hits: 2, Misses: 1, Recomputes: 1}) {
		t.Fatalf("totals = %+v, want 2 hits / 1 miss / 1 recompute", got)
	}

	// The same bytes put again form a new, unchecked entry.
	if err := st.Put(key, bytes.Clone(first)); err != nil {
		t.Fatal(err)
	}
	serve(true, 2)
	serve(true, 2)

	// Damaged numbers that still decode fail the check: recompute.
	var d ResultData
	if err := json.Unmarshal(first, &d); err != nil {
		t.Fatal(err)
	}
	d.Stats.Retired += 12345
	bad, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	s = sessionOn(st)
	if wire := serve(false, 3); bytes.Equal(wire, bad) {
		t.Fatal("damaged entry returned")
	}
	if got := totals(s); got != (StoreCounts{Misses: 1, Recomputes: 1}) {
		t.Fatalf("damaged entry totals = %+v, want 1 miss / 1 recompute", got)
	}
	serve(true, 4)

	// A reopened store starts unchecked.
	path := st.Path()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = resultstore.Open(path, resultstore.Options{Salt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s.SetStore(st)
	serve(true, 5)
	serve(true, 5)
}

// TestExecuteConcurrentFirstReads serves one unchecked entry to many
// goroutines at once (run under -race in verify.sh): every read is a
// hit on the stored bytes, and the entry is checked afterwards.
func TestExecuteConcurrentFirstReads(t *testing.T) {
	st := newStore(t, 1)
	s := sessionOn(st)
	ctx := context.Background()
	p := StraightPoint("store-test", "wire", workloads.MicroFib, 1, ModeREP, uarch.Straight2Way())
	key, err := PointKey(p)
	if err != nil {
		t.Fatal(err)
	}
	if o := s.Execute(ctx, p, &key); o.Err != nil {
		t.Fatal(o.Err)
	}
	stored, _ := st.Get(key)
	calls := countChecks(t)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := s.Execute(ctx, p, &key)
			if o.Err != nil || o.Status != StatusHit || !bytes.Equal(o.Wire, stored) {
				t.Errorf("concurrent read: status %v err=%v, bytes equal=%v", o.Status, o.Err, bytes.Equal(o.Wire, stored))
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n < 1 || n > 8 {
		t.Fatalf("check ran %d times for 8 first reads, want 1..8", n)
	}
	n := calls.Load()
	if o := s.Execute(ctx, p, &key); o.Err != nil {
		t.Fatal(o.Err)
	}
	if calls.Load() != n {
		t.Fatal("check ran again after the entry was checked")
	}
}

// TestInterruptAbortsRunningCores raises a run's interrupt flag before
// it starts: both cores stop with ErrInterrupted, and a run without the
// flag completes. The interrupted cores are not returned to the
// session's pool: the run after them builds its own.
func TestInterruptAbortsRunningCores(t *testing.T) {
	s := NewSession()
	ssIm, err := s.BuildRISCV(workloads.MicroFib, 1)
	if err != nil {
		t.Fatal(err)
	}
	stIm, err := s.BuildSTRAIGHT(workloads.MicroFib, 1, 31, ModeREP)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	stop.Store(true)
	if _, err := simulate(CoreSS, uarch.SS2Way(), ssIm, nil, &stop, &s.cores); !errors.Is(err, uarch.ErrInterrupted) {
		t.Fatalf("SS under interrupt: err = %v, want ErrInterrupted", err)
	}
	cfg := uarch.Straight2Way()
	cfg.MaxDistance = 31
	if _, err := simulate(CoreStraight, cfg, stIm, nil, &stop, &s.cores); !errors.Is(err, uarch.ErrInterrupted) {
		t.Fatalf("STRAIGHT under interrupt: err = %v, want ErrInterrupted", err)
	}
	for range 2 {
		if _, err := simulate(CoreSS, uarch.SS2Way(), ssIm, nil, nil, &s.cores); err != nil {
			t.Fatalf("SS without interrupt: %v", err)
		}
	}
	if n := s.cores.Built(); n != 3 {
		t.Fatalf("built %d cores, want 3: one per interrupted run, one for both later runs", n)
	}
}

// TestInterruptCancelsSweep interrupts a session before its sweep: every
// point fails fast, and a fresh session runs the same points.
func TestInterruptCancelsSweep(t *testing.T) {
	s := NewSession()
	s.Interrupt()
	_, err := s.Run(storePoints())
	if !errors.Is(err, uarch.ErrInterrupted) {
		t.Fatalf("interrupted sweep: err = %v, want ErrInterrupted", err)
	}
	if _, err := NewSession().Run(storePoints()[2:]); err != nil {
		t.Fatalf("fresh session after an interrupted one: %v", err)
	}
}
