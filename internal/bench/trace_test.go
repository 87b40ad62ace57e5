package bench

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"straight/internal/ptrace"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// BenchmarkSimTracedVsUntraced measures the tracing overhead on the
// STRAIGHT core: the Untraced case is the nil-tracer fast path (a nil
// check per hook site), the Traced case streams Kanata records to
// io.Discard. EXPERIMENTS.md records the numbers; the untraced path
// must stay within noise of a build without hooks (<2%).
func BenchmarkSimTracedVsUntraced(b *testing.B) {
	im, err := BuildSTRAIGHT(workloads.MicroFib, 1, 0, ModeREP)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Straight4Way()

	b.Run("Untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Simulate(CoreStraight, cfg, im, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := ptrace.New(io.Discard, ptrace.Config{})
			if _, err := Simulate(CoreStraight, cfg, im, tr); err != nil {
				b.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestTraceTargetClaiming(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "point.kanata")
	SetTraceTarget(&TraceTarget{Point: "T/micro-fib/RE+", Path: path, Window: 256})
	defer SetTraceTarget(nil)

	pts := []SweepPoint{
		StraightPoint("T", "micro-fib/RAW", workloads.MicroFib, 1, ModeRAW, uarch.Straight4Way()),
		StraightPoint("T", "micro-fib/RE+", workloads.MicroFib, 1, ModeREP, uarch.Straight4Way()),
	}
	results, err := (&Runner{Workers: 2}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !TraceTargetClaimed() {
		t.Fatal("target never claimed")
	}
	if results[0].Trace != nil {
		t.Error("untargeted point got a trace")
	}
	rec := results[1].Trace
	if rec == nil {
		t.Fatal("targeted point has no trace record")
	}
	if rec.Path != path || rec.SeriesPath != ptrace.SeriesPath(path) {
		t.Errorf("record paths = %+v", rec)
	}
	if rec.Series == nil || rec.Series.WindowCycles != 256 {
		t.Errorf("series = %+v, want window 256", rec.Series)
	}
	if rec.Series.Retired != results[1].Retired {
		t.Errorf("series retired %d != point retired %d", rec.Series.Retired, results[1].Retired)
	}

	// The artifacts exist and parse.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace, err := ptrace.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Version != "0004" {
		t.Errorf("trace version %q", trace.Version)
	}
	if _, err := ptrace.ReadSeriesFile(rec.SeriesPath); err != nil {
		t.Fatal(err)
	}

	// A second sweep must not re-claim the consumed target.
	if _, err := (&Runner{Workers: 1}).Run(pts[1:]); err != nil {
		t.Fatal(err)
	}
}
