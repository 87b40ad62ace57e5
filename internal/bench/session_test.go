package bench

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"straight/internal/uarch"
	"straight/internal/workloads"
)

// TestSessionsShareNothing runs the same points on two sessions in one
// process: each has its own store, counters, journal and build cache.
func TestSessionsShareNothing(t *testing.T) {
	a, b := sessionOn(newStore(t, 1)), sessionOn(newStore(t, 1))
	points := storePoints()
	if _, err := a.Run(points); err != nil {
		t.Fatal(err)
	}
	if got := totals(b); got != (StoreCounts{}) {
		t.Fatalf("b's counters after a ran: %+v", got)
	}
	if n := len(b.Journal()); n != 0 {
		t.Fatalf("b's journal has %d records after a ran", n)
	}
	if hits, misses := b.BuildCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("b's build cache after a ran: %d hits, %d misses", hits, misses)
	}
	if n := b.Store().Stats().Entries; n != 0 {
		t.Fatalf("b's store has %d entries after a ran", n)
	}

	// b simulates everything itself, and a's counters do not move.
	before := totals(a)
	if _, err := b.Run(points); err != nil {
		t.Fatal(err)
	}
	if got := totals(b); got.Hits != 0 || got.Recomputes != int64(len(points)) {
		t.Fatalf("b's counters = %+v, want %d recomputes and no hits", got, len(points))
	}
	if got := totals(a); got != before {
		t.Fatalf("a's counters moved from %+v to %+v while b ran", before, got)
	}
	ia, err := a.BuildRISCV(workloads.MicroFib, 1)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.BuildRISCV(workloads.MicroFib, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ia == ib {
		t.Fatal("two sessions share a cached image")
	}
}

// longPoint never finishes within a test: a million Dhrystone
// iterations on a cycle core.
func longPoint() SweepPoint {
	return StraightPoint("cancel", "long", workloads.Dhrystone, 1_000_000, ModeREP, uarch.Straight2Way())
}

// inEngine reports whether any goroutine is inside the cycle engine.
func inEngine() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("straight/internal/cores/engine.(*Core["))
}

// waitUntil polls cond for up to 30 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within 30s", what)
		}
	}
}

// startLong executes longPoint on s under ctx once its image is built,
// returns when the simulation is running, and delivers the point's
// outcome on the channel.
func startLong(t *testing.T, s *Session, ctx context.Context) <-chan Outcome {
	t.Helper()
	p := longPoint()
	if _, err := s.build(p); err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 1)
	go func() { done <- s.Execute(ctx, p, nil) }()
	waitUntil(t, "long point simulating", inEngine)
	return done
}

// awaitInterrupted requires the long point to stop promptly, cancelled
// with ErrInterrupted: the engine polls its flag once per advance.
func awaitInterrupted(t *testing.T, done <-chan Outcome) {
	t.Helper()
	select {
	case o := <-done:
		if o.Status != StatusCancelled || !errors.Is(o.Err, uarch.ErrInterrupted) {
			t.Fatalf("cancelled point: status %v, err = %v; want cancelled with ErrInterrupted", o.Status, o.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled point still running after 10s")
	}
}

// referenceResult runs p on a fresh session.
func referenceResult(t *testing.T, p SweepPoint) PointResult {
	t.Helper()
	res, err := NewSession().Run([]SweepPoint{p})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// sameStats requires got to carry want's statistics.
func sameStats(t *testing.T, got, want PointResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) || got.Output != want.Output {
		t.Fatalf("%s: stats differ from an undisturbed run", got.Point.Name())
	}
}

// TestCancelPointContext cancels one running point's context: that
// point stops with ErrInterrupted, while a concurrent point of the same
// session completes with the stats of an undisturbed run.
func TestCancelPointContext(t *testing.T) {
	s := NewSession()
	other := StraightPoint("cancel", "other", workloads.Dhrystone, 30, ModeREP, uarch.Straight4Way())
	want := referenceResult(t, other)

	ctx, cancel := context.WithCancel(context.Background())
	done := startLong(t, s, ctx)
	otherDone := make(chan Outcome, 1)
	go func() { otherDone <- s.Execute(context.Background(), other, nil) }()
	cancel()
	awaitInterrupted(t, done)
	o := <-otherDone
	got, err := o.PointResult(other)
	if err != nil || o.Status != StatusSimulated {
		t.Fatalf("concurrent point: status %v, err %v; want simulated", o.Status, err)
	}
	sameStats(t, got, want)
}

// TestSessionInterruptIsIsolated interrupts one session while another
// runs: only the first session's point stops, and the second one's
// later points still run.
func TestSessionInterruptIsIsolated(t *testing.T) {
	a, b := NewSession(), NewSession()
	other := SSPoint("cancel", "other", workloads.Dhrystone, 30, uarch.SS4Way())
	want := referenceResult(t, other)

	done := startLong(t, a, context.Background())
	otherDone := make(chan error, 1)
	var got []PointResult
	go func() {
		var err error
		got, err = b.Run([]SweepPoint{other})
		otherDone <- err
	}()
	a.Interrupt()
	awaitInterrupted(t, done)
	if err := <-otherDone; err != nil {
		t.Fatalf("other session's point: %v", err)
	}
	sameStats(t, got[0], want)
	if _, err := b.Run(storePoints()); err != nil {
		t.Fatalf("other session after the interrupt: %v", err)
	}
}

// allowedGlobals is the package-level state internal/bench may keep:
// everything else belongs to a Session.
var allowedGlobals = map[string]bool{
	"defaultSession": true, // behind the wrappers benchmark/ compiles against
	"ScaleQuick":     true,
	"ScaleDefault":   true,
	"checkStored":    true, // test seam counting stored-entry checks
}

// TestNoPackageGlobals parses the package's non-test files and fails on
// any package-level var outside allowedGlobals.
func TestNoPackageGlobals(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if !allowedGlobals[id.Name] {
						t.Errorf("%s: package-level var %s: keep this state in Session", fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
}
