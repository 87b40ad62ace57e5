package sampling

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"straight/internal/resultstore"
	"straight/internal/sasm"
	"straight/internal/uarch"
)

// loopSrc retires ~28k instructions: a print, a 4000-iteration
// Fibonacci loop, a second print and exit. The first print lands inside
// the first interval of a dense plan, which makes it a deterministic
// mid-run trigger for the interrupt test.
const loopSrc = `
main:
    ADDi [0], 7
    SYS puti, [1]
    ADDi [0], 0      # a = 0
    ADDi [0], 1      # b = 1
    ADDi [0], 4000   # n
    NOP              # distance fixing vs back-edge J
loop:                # frame: [2]=n, [3]=b, [4]=a
    BEZ [2], done
    ADD [4], [5]     # t = b + a
    ADDi [4], -1     # n-1
    RMOV [6]         # a' = old b
    RMOV [3]         # b' = t
    RMOV [3]         # n' = n-1
    J loop
done:
    SYS puti, [4]
    ADDi [0], 0
    SYS exit, [1]
`

var densePlan = Plan{Interval: 1024, Warmup: 256, Window: 1024}

func loopTarget(t *testing.T) *Target {
	t.Helper()
	im, err := sasm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewTarget("straight", uarch.Straight2Way(), im)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestFFSeqBytesPinned pins the stored checkpoint-sequence encoding for
// a fixed image and plan: the bytes are a result-store value that runs
// against an existing store must still decode and serve.
func TestFFSeqBytesPinned(t *testing.T) {
	tgt := loopTarget(t)
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "ff.store"), resultstore.Options{Salt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Run(tgt, densePlan, Options{Workers: 2, Store: store}); err != nil {
		t.Fatal(err)
	}
	raw, ok := store.Get(ffKey(tgt, densePlan, defaultMaxInsns))
	if !ok {
		t.Fatal("run stored no checkpoint sequence")
	}
	const want = "9676656cc6eac658b0de0726ac6a2a6af4bb04c06b2db41fbcb1bb274a217b23"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Errorf("checkpoint sequence: %d bytes, sha256 %s, want %s", len(raw), got, want)
	}
}

// TestSnapshotPoolBound: a run allocates at most Workers+1 warm-state
// snapshots however many windows it measures.
func TestSnapshotPoolBound(t *testing.T) {
	tgt := loopTarget(t)
	for _, workers := range []int{1, 2, 8} {
		rep, err := Run(tgt, densePlan, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.snapshots < 1 || rep.snapshots > workers+1 {
			t.Errorf("workers=%d: %d windows allocated %d snapshots, want 1..%d",
				workers, len(rep.Windows), rep.snapshots, workers+1)
		}
	}
}

// TestTargetReusesWindowCores: a second Run on the same Target takes
// its window core, its fast-forward trainer and its snapshots from the
// first Run's, and reports the same fingerprint. With one worker each
// run has one core out. How many snapshots a run has out at once (1 or
// 2) is timing's choice, so the second run may build one snapshot, and
// only when it had out more than the first.
func TestTargetReusesWindowCores(t *testing.T) {
	tgt := loopTarget(t)
	first, err := Run(tgt, densePlan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cores, warm := tgt.cores.Built(), tgt.warm.built
	if cores != 1 || warm != 1+first.snapshots {
		t.Fatalf("first run built %d cores and %d warm states, want 1 and %d", cores, warm, 1+first.snapshots)
	}
	second, err := Run(tgt, densePlan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := tgt.cores.Built() - cores; n != 0 {
		t.Errorf("second run built %d cores, want 0", n)
	}
	if n, want := tgt.warm.built-warm, max(0, second.snapshots-first.snapshots); n != want {
		t.Errorf("second run built %d warm states, want %d (it had out %d snapshots, the first %d)",
			n, want, second.snapshots, first.snapshots)
	}
	if a, b := first.Fingerprint(), second.Fingerprint(); !bytes.Equal(a, b) {
		t.Errorf("second run's fingerprint %x differs from the first's %x", b, a)
	}
}

// flagWriter raises an interrupt flag on the program's first output.
type flagWriter struct{ flag *atomic.Bool }

func (w flagWriter) Write(p []byte) (int, error) {
	w.flag.Store(true)
	return len(p), nil
}

// TestStreamErrorPaths: fast-forward errors reach the caller with their
// pre-streaming text and leave no window worker behind.
func TestStreamErrorPaths(t *testing.T) {
	tgt := loopTarget(t)
	before := runtime.NumGoroutine()

	_, err := Run(tgt, densePlan, Options{Workers: 4, MaxInsns: 5000})
	const capErr = "sampling: straight/STRAIGHT-2way did not exit within 5000 instructions"
	if err == nil || err.Error() != capErr {
		t.Errorf("cap error = %v, want %q", err, capErr)
	}

	var pre atomic.Bool
	pre.Store(true)
	if _, err := Run(tgt, densePlan, Options{Workers: 4, Interrupt: &pre}); !errors.Is(err, uarch.ErrInterrupted) {
		t.Errorf("interrupt set before the run: err = %v, want ErrInterrupted", err)
	}

	var mid atomic.Bool
	_, err = Run(tgt, densePlan, Options{Workers: 4, Interrupt: &mid, Output: flagWriter{&mid}})
	if !errors.Is(err, uarch.ErrInterrupted) {
		t.Errorf("interrupt set mid-run: err = %v, want ErrInterrupted", err)
	}

	// Run waits for its workers, so the count is back immediately; the
	// settle loop only absorbs unrelated runtime goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the error paths, %d before", n, before)
	}
}
