package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"straight/internal/core"
	"straight/internal/program"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// microSweep is a cheap multi-engine sweep over the microkernels, used
// to exercise the runner without paying for the paper workloads.
func microSweep() []SweepPoint {
	var pts []SweepPoint
	for _, w := range []workloads.Workload{workloads.MicroFib, workloads.MicroSieve, workloads.MicroBranch, workloads.MicroPointer} {
		pts = append(pts,
			SSPoint("test", string(w)+"/SS", w, 1, uarch.SS2Way()),
			StraightPoint("test", string(w)+"/RAW", w, 1, ModeRAW, uarch.Straight2Way()),
			StraightPoint("test", string(w)+"/RE+", w, 1, ModeREP, uarch.Straight2Way()),
		)
	}
	pts = append(pts,
		SweepPoint{Section: "test", Label: "fib/emu-riscv", Workload: workloads.MicroFib, Core: CoreEmuRISCV, Iters: 1},
		SweepPoint{Section: "test", Label: "fib/emu-straight", Workload: workloads.MicroFib, Core: CoreEmuStraight, Iters: 1, Mode: ModeREP, MaxDist: 31},
	)
	return pts
}

// formatResults renders every deterministic field of a result list.
func formatResults(results []PointResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s cycles=%d retired=%d ipc=%.6f out=%q\n",
			r.Point.Name(), r.Cycles, r.Retired, r.IPC, r.Output)
	}
	return b.String()
}

// TestRunnerDeterministicAcrossParallelism runs the same sweep serially
// and on 8 workers (with a cold build cache each time) and requires
// byte-identical results.
func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	points := microSweep()

	ResetBuildCache()
	serial, err := (&Runner{Workers: 1}).Run(points)
	if err != nil {
		t.Fatal(err)
	}
	ResetBuildCache()
	parallel, err := (&Runner{Workers: 8}).Run(points)
	if err != nil {
		t.Fatal(err)
	}

	got, want := formatResults(parallel), formatResults(serial)
	if got != want {
		t.Errorf("-j 8 results differ from -j 1:\n--- j1 ---\n%s--- j8 ---\n%s", want, got)
	}
}

// TestRunnerOrderIsSubmissionOrder checks results come back indexed by
// submission position, not completion order.
func TestRunnerOrderIsSubmissionOrder(t *testing.T) {
	points := microSweep()
	results, err := (&Runner{Workers: 4}).Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points) {
		t.Fatalf("got %d results for %d points", len(results), len(points))
	}
	for i, r := range results {
		if r.Point.Label != points[i].Label {
			t.Errorf("slot %d: got %q, want %q", i, r.Point.Label, points[i].Label)
		}
	}
}

// TestRunnerErrorPropagation requires a failing point to surface its
// error (naming the point) while the runner keeps the pool healthy.
func TestRunnerErrorPropagation(t *testing.T) {
	bad := uarch.Straight2Way()
	bad.MaxDistance = 4 // below the backend's compilable minimum
	points := []SweepPoint{
		SSPoint("test", "good", workloads.MicroFib, 1, uarch.SS2Way()),
		StraightPoint("test", "bad-maxdist", workloads.MicroFib, 1, ModeREP, bad),
		SSPoint("test", "good-2", workloads.MicroSieve, 1, uarch.SS2Way()),
	}
	for _, workers := range []int{1, 4} {
		results, err := (&Runner{Workers: workers}).Run(points)
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if results != nil {
			t.Errorf("workers=%d: results must be nil on error", workers)
		}
		if !strings.Contains(err.Error(), "bad-maxdist") {
			t.Errorf("workers=%d: error %q does not name the failing point", workers, err)
		}
	}
}

// TestRunnerUnknownCore rejects malformed points.
func TestRunnerUnknownCore(t *testing.T) {
	_, err := (&Runner{}).Run([]SweepPoint{{Section: "test", Label: "bogus", Workload: workloads.MicroFib, Core: "warp-drive", Iters: 1}})
	if err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("want unknown-core error, got %v", err)
	}
}

// TestBuildCacheSingleflight hammers one build key from many goroutines
// and requires exactly one compilation, with every caller receiving the
// same image.
func TestBuildCacheSingleflight(t *testing.T) {
	ResetBuildCache()
	const callers = 16
	images := make([]*program.Image, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			images[i], errs[i] = BuildSTRAIGHT(workloads.MicroFib, 1, 31, ModeREP)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if images[i] != images[0] {
			t.Fatalf("caller %d got a different image", i)
		}
	}
	hits, misses := BuildCacheStats()
	if misses != 1 {
		t.Errorf("got %d compilations for one key, want 1", misses)
	}
	if hits != callers-1 {
		t.Errorf("got %d cache hits, want %d", hits, callers-1)
	}
}

// imageFingerprint hashes every observable field of an image.
func imageFingerprint(im *program.Image) [sha256.Size]byte {
	var b strings.Builder
	fmt.Fprintf(&b, "entry=%d text@%d data@%d\n", im.Entry, im.TextBase, im.DataBase)
	for _, w := range im.Text {
		fmt.Fprintf(&b, "%08x", w)
	}
	b.WriteByte('\n')
	b.Write(im.Data)
	for _, name := range im.SymbolNames() {
		fmt.Fprintf(&b, "\n%s=%d", name, im.Symbols[name])
	}
	return sha256.Sum256([]byte(b.String()))
}

// TestSharedImagesNotMutated proves the cache's shared-read-only
// contract: concurrent cycle simulations and emulations leave the
// cached images bit-for-bit untouched.
func TestSharedImagesNotMutated(t *testing.T) {
	ssIm, err := BuildRISCV(workloads.MicroBranch, 1)
	if err != nil {
		t.Fatal(err)
	}
	stIm, err := BuildSTRAIGHT(workloads.MicroBranch, 1, 31, ModeREP)
	if err != nil {
		t.Fatal(err)
	}
	ssBefore, stBefore := imageFingerprint(ssIm), imageFingerprint(stIm)

	var wg sync.WaitGroup
	fail := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			if _, err := Simulate(CoreSS, uarch.SS2Way(), ssIm, nil); err != nil {
				fail <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := Simulate(CoreStraight, uarch.Straight2Way(), stIm, nil); err != nil {
				fail <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := core.Emulate(&core.Program{Target: core.TargetRISCV, Image: ssIm}, nil); err != nil {
				fail <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := core.Emulate(&core.Program{Target: core.TargetStraight, Image: stIm}, nil); err != nil {
				fail <- err
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	if imageFingerprint(ssIm) != ssBefore {
		t.Error("simulations mutated the cached RISC-V image")
	}
	if imageFingerprint(stIm) != stBefore {
		t.Error("simulations mutated the cached STRAIGHT image")
	}
}

// TestJournalRecordsEveryPoint checks the -json data source: one record
// per executed point, in submission order, with the summary fields set.
func TestJournalRecordsEveryPoint(t *testing.T) {
	ResetJournal()
	points := microSweep()
	if _, err := RunPoints(points); err != nil {
		t.Fatal(err)
	}
	recs := Journal()
	if len(recs) != len(points) {
		t.Fatalf("journal has %d records for %d points", len(recs), len(points))
	}
	for i, rec := range recs {
		if rec.Label != points[i].Label || rec.Section != points[i].Section {
			t.Errorf("record %d is %s/%s, want %s/%s", i, rec.Section, rec.Label, points[i].Section, points[i].Label)
		}
		if rec.Retired == 0 {
			t.Errorf("%s: retired count missing", rec.Label)
		}
		if points[i].Core == CoreSS || points[i].Core == CoreStraight {
			if rec.Cycles == 0 || rec.IPC == 0 || rec.Config == "" {
				t.Errorf("%s: cycle-core fields missing: %+v", rec.Label, rec)
			}
		}
		if rec.WallSeconds <= 0 {
			t.Errorf("%s: wall time missing", rec.Label)
		}
	}
}
