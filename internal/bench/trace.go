package bench

import (
	"fmt"
	"os"

	"straight/internal/ptrace"
)

// TraceTarget selects one sweep point to trace: when a session executes
// the point whose name (Section/Label) equals Point, it attaches a
// ptrace.Tracer writing a Kanata log to Path and a time-series sidecar
// next to it. Exactly one point is traced per target — the first worker
// to reach it claims it — so a sweep's cost stays flat no matter how
// many points share a section.
type TraceTarget struct {
	// Point is the SweepPoint name, "Section/Label" (e.g.
	// "Fig 11/coremark/RE+"). Run cmd/experiments -json to list names.
	Point string
	// Path receives the Kanata log; the series JSON goes to
	// ptrace.SeriesPath(Path).
	Path string
	// Window is the time-series sampling window in cycles (0 = ptrace
	// default).
	Window int64
}

// claimTrace returns the session's trace target if p is the point it
// names and no earlier point claimed it, else nil: exactly one point is
// traced per session.
func (s *Session) claimTrace(p SweepPoint) *TraceTarget {
	if s.Trace == nil || s.Trace.Point != p.Name() || !p.Core.Cycle() || !s.traceClaimed.CompareAndSwap(false, true) {
		return nil
	}
	return s.Trace
}

// TraceClaimed reports whether an executed point matched the trace
// target (so CLIs can warn about typoed point names).
func (s *Session) TraceClaimed() bool { return s.traceClaimed.Load() }

// TraceRecord describes the trace artifacts of one executed point; it is
// embedded in the bench journal so -json reports carry the windowed time
// series inline.
type TraceRecord struct {
	Path       string         `json:"path"`
	SeriesPath string         `json:"series_path"`
	Series     *ptrace.Series `json:"series,omitempty"`
}

// withTracer runs one traced simulation: it creates the Kanata file,
// hands the run a live Tracer, then flushes the log and writes the
// series sidecar.
func withTracer(tgt *TraceTarget, run func(tr *ptrace.Tracer) error) (*TraceRecord, error) {
	f, err := os.Create(tgt.Path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	tr := ptrace.New(f, ptrace.Config{Window: tgt.Window})
	if err := run(tr); err != nil {
		f.Close()
		return nil, err
	}
	if err := tr.Close(); err != nil {
		f.Close()
		return nil, fmt.Errorf("trace %s: %w", tgt.Path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", tgt.Path, err)
	}
	series := tr.Series()
	sp := ptrace.SeriesPath(tgt.Path)
	if err := ptrace.WriteSeriesFile(sp, series); err != nil {
		return nil, err
	}
	return &TraceRecord{Path: tgt.Path, SeriesPath: sp, Series: series}, nil
}
