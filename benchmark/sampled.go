package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"straight/internal/bench"
	"straight/internal/resultstore"
	"straight/internal/sampling"
)

// sampledLong runs cold sampled simulations of a long program: the
// functional emulators fast-forward and warm, and restored windows run
// in detail on two workers. Each run writes its checkpoints and windows
// to a fresh store.
type sampledLong struct {
	*env
	runs    []sampledRun
	targets []*sampling.Target
	b       *builder
	fullIPC map[string]float64 // per point label, from prepare
}

// sampledWorkers is the window parallelism of one sampled run.
const sampledWorkers = 2

func (w *sampledLong) setup(tr *tracer) (*builder, []bench.SweepPoint, error) {
	pts := make([]bench.SweepPoint, len(w.runs))
	for i, r := range w.runs {
		pts[i] = r.point
	}
	b, err := buildAll(tr, pts)
	if err != nil {
		return nil, nil, err
	}
	w.b = b
	w.targets = make([]*sampling.Target, len(w.runs))
	for i, r := range w.runs {
		im, err := b.image(r.point, 0, 0)
		if err != nil {
			return nil, nil, err
		}
		// bench core kinds name the sampling policies.
		if w.targets[i], err = sampling.NewTarget(string(r.point.Core), r.point.Config, im); err != nil {
			return nil, nil, err
		}
	}
	return b, pts, nil
}

// prepare runs each kernel once in full detail, the reference the
// sampled IPC error is measured against.
func (w *sampledLong) prepare(tr *tracer) error {
	st, err := w.openStore()
	if err != nil {
		return err
	}
	defer closeStore(st)
	w.fullIPC = map[string]float64{}
	for _, r := range w.runs {
		_, res, err := w.execute(w.b, st, tr, "sampled.reference", r.point)
		if err != nil {
			return err
		}
		w.fullIPC[r.point.Label] = res.IPC
	}
	return nil
}

// round runs every kernel's sampled simulation once, each cold.
func (w *sampledLong) round(tr *tracer) (roundStats, error) {
	r := roundStats{workers: 1}
	for i := range w.runs {
		st, err := w.openStore()
		if err != nil {
			return roundStats{}, err
		}
		lat, insts, err := w.run(i, st, tr)
		r.liveBytes = st.Stats().LiveBytes
		closeStore(st)
		r.add(lat, insts, err)
		r.wall += lat
	}
	return r, nil
}

// run is one sampled-long operation on an empty store.
func (w *sampledLong) run(i int, st *resultstore.Store, tr *tracer) (time.Duration, uint64, error) {
	sr := w.runs[i]
	var out bytes.Buffer
	op := w.nextOp.Add(1)
	id := tr.start("sampling.run", 0, op)
	start := time.Now()
	rep, err := sampling.Run(w.targets[i], sr.plan, sampling.Options{Workers: sampledWorkers, Store: st, Output: &out})
	lat := time.Since(start)
	tr.end(id)
	if err == nil {
		err = w.checkReport(sr, rep, out.String(), lat)
	}
	if err != nil {
		return lat, 0, err
	}
	if tr != nil {
		w.traceReport(tr, sr, rep, id, op, start)
	}
	return lat, rep.TotalInsts, nil
}

// checkReport compares a sampled run with the oracle: the fast-forward
// executes every instruction, so the instruction count, exit code and
// console output are exact.
func (w *sampledLong) checkReport(sr sampledRun, rep *sampling.Report, out string, lat time.Duration) error {
	want := w.check.want[imageKey(sr.point)]
	name := sr.point.Name()
	switch {
	case rep.TotalInsts != want.insts:
		return fmt.Errorf("%s: sampled run counted %d instructions, emulator %d", name, rep.TotalInsts, want.insts)
	case rep.ExitCode != want.exit:
		return fmt.Errorf("%s: sampled exit code %d, emulator %d", name, rep.ExitCode, want.exit)
	case out != want.output:
		return fmt.Errorf("%s: sampled console output %q, emulator printed %q", name, out, want.output)
	case len(rep.Windows) == 0 || rep.IPC <= 0:
		return fmt.Errorf("%s: sampled run measured no window", name)
	case rep.Timing.WallSeconds > lat.Seconds():
		return fmt.Errorf("%s: reported wall %.6fs exceeds the measured %.6fs", name, rep.Timing.WallSeconds, lat.Seconds())
	}
	return w.check.record(fmt.Sprintf("%s+%d", sr.point.Label, sr.plan.Offset), rep.Fingerprint())
}

// traceReport adds the fast-forward and window phases the report times
// as child spans of the run, and accumulates the sampling layer's counts.
func (w *sampledLong) traceReport(tr *tracer, sr sampledRun, rep *sampling.Report, id int, op int64, start time.Time) {
	ff := start.Add(time.Duration(rep.Timing.FFSeconds * float64(time.Second)))
	end := start.Add(time.Duration(rep.Timing.WallSeconds * float64(time.Second)))
	tr.add("sampling.ff", id, op, start, ff)
	tr.add("sampling.windows", id, op, ff, end)

	var windowInsts uint64
	for _, win := range rep.Windows {
		windowInsts += win.WarmupRetired + win.Retired
	}
	tr.count("sampling.runs", 1)
	tr.count("sampling.ff_s", rep.Timing.FFSeconds)
	tr.count("sampling.window_s", rep.Timing.WindowSeconds)
	tr.count("sampling.wall_s", rep.Timing.WallSeconds)
	tr.count("sampling.insts", float64(rep.TotalInsts))
	tr.count("sampling.window_insts", float64(windowInsts))
	tr.count("sampling.windows", float64(len(rep.Windows)))
	tr.count("sampling.emu_s", tr.emuSeconds(imageKey(sr.point)))
	if full := w.fullIPC[sr.point.Label]; full > 0 {
		tr.count("sampling.err_pct_sum", 100*math.Abs(rep.IPC-full)/full)
		tr.count("sampling.err_n", 1)
	}
}

func (w *sampledLong) close() {}
