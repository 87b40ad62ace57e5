package bench

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// withStore opens a fresh result store for the test, installs it as the
// package store, and tears everything (store, counters, journal) down
// afterwards so the package-level state never leaks between tests.
func withStore(t *testing.T, salt uint64) *resultstore.Store {
	t.Helper()
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "results.log"), resultstore.Options{Salt: salt})
	if err != nil {
		t.Fatal(err)
	}
	SetStore(st)
	ResetStoreStats()
	ResetJournal()
	t.Cleanup(func() {
		SetStore(nil)
		ResetStoreStats()
		ResetJournal()
		st.Close()
	})
	return st
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
func journalJSON(t *testing.T) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(Journal(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestStoreWarmRunIsByteIdenticalAndFree(t *testing.T) {
	withStore(t, 1)
	points := storePoints()

	cold, err := RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	coldTotals := StoreTotals()
	if coldTotals.Hits != 0 || coldTotals.Misses != int64(len(points)) || coldTotals.Recomputes != int64(len(points)) {
		t.Fatalf("cold totals = %+v, want 0 hits / %d misses / %d recomputes", coldTotals, len(points), len(points))
	}
	coldJSON := journalJSON(t)

	ResetStoreStats()
	ResetJournal()
	warm, err := RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	warmTotals := StoreTotals()
	if warmTotals.Hits != int64(len(points)) || warmTotals.Recomputes != 0 {
		t.Fatalf("warm totals = %+v, want %d hits / 0 recomputes", warmTotals, len(points))
	}
	warmJSON := journalJSON(t)
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
	bySec := StoreCountsBySection()
	if bySec["store-test"].Hits != int64(len(points)) {
		t.Fatalf("per-section counts = %+v", bySec)
	}
}

func TestStoreDirtiesExactlyAffectedPoints(t *testing.T) {
	withStore(t, 1)
	points := storePoints()
	if _, err := RunPoints(points); err != nil {
		t.Fatal(err)
	}

	// Change one core Option on one point: only that point recomputes.
	ResetStoreStats()
	dirty := make([]SweepPoint, len(points))
	copy(dirty, points)
	cfg := dirty[0].Config
	cfg.ROBSize += 8
	dirty[0].Config = cfg
	if _, err := RunPoints(dirty); err != nil {
		t.Fatal(err)
	}
	got := StoreTotals()
	if got.Hits != int64(len(points)-1) || got.Recomputes != 1 {
		t.Fatalf("after config change: totals = %+v, want %d hits / 1 recompute", got, len(points)-1)
	}

	// Change the workload input (iteration count changes the generated
	// source): every point over that workload recomputes.
	ResetStoreStats()
	bumped := make([]SweepPoint, len(points))
	copy(bumped, points)
	for i := range bumped {
		bumped[i].Iters = 2
	}
	if _, err := RunPoints(bumped); err != nil {
		t.Fatal(err)
	}
	got = StoreTotals()
	if got.Hits != 0 || got.Recomputes != int64(len(points)) {
		t.Fatalf("after iters change: totals = %+v, want 0 hits / %d recomputes", got, len(points))
	}

	// Section/Label renames must NOT dirty anything: the same simulation
	// shown in another figure reuses the entry.
	ResetStoreStats()
	renamed := make([]SweepPoint, len(points))
	copy(renamed, points)
	for i := range renamed {
		renamed[i].Section = "other-figure"
	}
	if _, err := RunPoints(renamed); err != nil {
		t.Fatal(err)
	}
	got = StoreTotals()
	if got.Hits != int64(len(points)) || got.Recomputes != 0 {
		t.Fatalf("after relabel: totals = %+v, want all hits", got)
	}
}

func TestStoreSaltBumpInvalidates(t *testing.T) {
	st := withStore(t, 1)
	points := storePoints()
	if _, err := RunPoints(points); err != nil {
		t.Fatal(err)
	}
	path := st.Path()
	st.Close()
	SetStore(nil)

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
	SetStore(st2)
	ResetStoreStats()
	if _, err := RunPoints(points); err != nil {
		t.Fatal(err)
	}
	got := StoreTotals()
	if got.Hits != 0 || got.Recomputes != int64(len(points)) {
		t.Fatalf("after salt bump: totals = %+v, want 0 hits / %d recomputes", got, len(points))
	}
}

func TestStoreSkipsTracedPoints(t *testing.T) {
	withStore(t, 1)
	p := SSPoint("store-test", "traced", workloads.MicroFib, 1, uarch.SS2Way())

	SetTraceTarget(&TraceTarget{Point: p.Name(), Path: filepath.Join(t.TempDir(), "trace.log")})
	defer SetTraceTarget(nil)
	res, err := RunPoints([]SweepPoint{p})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Trace == nil {
		t.Fatal("traced point did not produce a trace")
	}
	got := StoreTotals()
	if got.Hits != 0 || got.Misses != 0 || got.Recomputes != 1 {
		t.Fatalf("traced point totals = %+v, want store bypass (0/0/1)", got)
	}

	// The traced run must not have been stored: a later plain run misses.
	SetTraceTarget(nil)
	ResetStoreStats()
	if _, err := RunPoints([]SweepPoint{p}); err != nil {
		t.Fatal(err)
	}
	got = StoreTotals()
	if got.Misses != 1 || got.Recomputes != 1 {
		t.Fatalf("post-trace totals = %+v, want 1 miss / 1 recompute", got)
	}
}

func TestStoreRejectsDamagedEntry(t *testing.T) {
	st := withStore(t, 1)
	p := SSPoint("store-test", "damaged", workloads.MicroFib, 1, uarch.SS2Way())
	if _, err := RunPoints([]SweepPoint{p}); err != nil {
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

	ResetStoreStats()
	if _, err := RunPoints([]SweepPoint{p}); err != nil {
		t.Fatal(err)
	}
	got := StoreTotals()
	if got.Hits != 0 || got.Recomputes != 1 {
		t.Fatalf("damaged entry totals = %+v, want recompute", got)
	}
	// The recompute replaced the damaged entry: next run hits again.
	ResetStoreStats()
	if _, err := RunPoints([]SweepPoint{p}); err != nil {
		t.Fatal(err)
	}
	if got := StoreTotals(); got.Hits != 1 {
		t.Fatalf("repaired entry totals = %+v, want hit", got)
	}
}

func TestInterruptAbortsRunningCores(t *testing.T) {
	defer ClearInterrupt()
	ssIm, err := BuildRISCV(workloads.MicroFib, 1)
	if err != nil {
		t.Fatal(err)
	}
	stIm, err := BuildSTRAIGHT(workloads.MicroFib, 1, 31, ModeREP)
	if err != nil {
		t.Fatal(err)
	}
	Interrupt()
	if _, err := Simulate(CoreSS, uarch.SS2Way(), ssIm, nil); !errors.Is(err, uarch.ErrInterrupted) {
		t.Fatalf("SS under interrupt: err = %v, want ErrInterrupted", err)
	}
	cfg := uarch.Straight2Way()
	cfg.MaxDistance = 31
	if _, err := Simulate(CoreStraight, cfg, stIm, nil); !errors.Is(err, uarch.ErrInterrupted) {
		t.Fatalf("STRAIGHT under interrupt: err = %v, want ErrInterrupted", err)
	}
	ClearInterrupt()
	if _, err := Simulate(CoreSS, uarch.SS2Way(), ssIm, nil); err != nil {
		t.Fatalf("SS after ClearInterrupt: %v", err)
	}
}

func TestInterruptCancelsSweep(t *testing.T) {
	defer ClearInterrupt()
	Interrupt()
	_, err := RunPoints(storePoints())
	if err == nil {
		t.Fatal("interrupted sweep returned nil error")
	}
	ClearInterrupt()
	if _, err := RunPoints(storePoints()[2:]); err != nil {
		t.Fatalf("after ClearInterrupt: %v", err)
	}
}
