package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"straight/internal/sampling"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// SampledRow is one kernel of the sampled-vs-full cross-validation
// (DESIGN.md §16): the long-workload tier simulated once in full detail
// and once under the default interval plan, side by side.
type SampledRow struct {
	Kernel     string
	Policy     string
	TotalInsts uint64
	Windows    int
	FullIPC    float64
	SampledIPC float64
	// RelErr is |sampled − full| / full; RelCI95 the sampled estimate's
	// own documented 95% error bound.
	RelErr   float64
	RelCI95  float64
	Coverage float64
	// FullKIPS/EffKIPS are detailed-simulation throughput and effective
	// sampled throughput (total program instructions over wall time).
	FullKIPS float64
	EffKIPS  float64
	Speedup  float64
}

// SampledVsFull runs DhrystoneLong on the three 4-wide kernels in full
// detail and under the default interval plan, reporting estimator
// accuracy and the effective-simulation-speed win. The sampled runs
// share the session's result store when one is set, so a warm re-run
// only pays fast-forward; the full runs are always simulated — they are
// the ground truth being timed. Interrupt cancels both.
func (s *Session) SampledVsFull(sc Scale) ([]SampledRow, error) {
	w, n := workloads.DhrystoneLong, sc.DhrystoneIters
	cells := []SweepPoint{
		StraightPoint("", "straight-4way", w, n, ModeREP, uarch.Straight4Way()),
		SSPoint("", "ss-4way", w, n, uarch.SS4Way()),
		CGPoint("", "cg-4way", w, n, uarch.CG4Way()),
	}
	stop, unregister := s.stopFlag(context.Background())
	defer unregister()
	var rows []SampledRow
	for _, c := range cells {
		img, err := s.build(c)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		res, err := simulate(c.Core, c.Config, img, nil, stop, &s.cores)
		if err != nil {
			return nil, err
		}
		full := res.Stats
		fullWall := time.Since(start).Seconds()

		tgt, err := sampling.NewTarget(string(c.Core), c.Config, img)
		if err != nil {
			return nil, err
		}
		rep, err := sampling.Run(tgt, sampling.DefaultPlan(),
			sampling.Options{Store: s.Store(), Interrupt: stop})
		if err != nil {
			return nil, err
		}

		fullIPC := full.IPC()
		row := SampledRow{
			Kernel:     c.Label,
			Policy:     string(c.Core),
			TotalInsts: rep.TotalInsts,
			Windows:    len(rep.Windows),
			FullIPC:    fullIPC,
			SampledIPC: rep.IPC,
			RelCI95:    rep.CPI.RelCI95,
			Coverage:   rep.Coverage,
			EffKIPS:    rep.Timing.EffectiveKIPS,
		}
		if fullIPC > 0 {
			row.RelErr = math.Abs(rep.IPC-fullIPC) / fullIPC
		}
		if fullWall > 0 {
			row.FullKIPS = float64(full.Retired) / fullWall / 1000
		}
		if row.FullKIPS > 0 {
			row.Speedup = row.EffKIPS / row.FullKIPS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSampled renders the sampled-vs-full table.
func FormatSampled(rows []SampledRow) string {
	var b strings.Builder
	b.WriteString("Sampled vs full detailed simulation (dhrystone-long, default plan)\n")
	fmt.Fprintf(&b, "%-14s %10s %9s %9s %7s %7s %9s %9s %8s\n",
		"kernel", "insts", "full IPC", "sampled", "err", "±CI95", "full KIPS", "eff KIPS", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10d %9.4f %9.4f %6.2f%% %6.2f%% %9.0f %9.0f %7.1fx\n",
			r.Kernel, r.TotalInsts, r.FullIPC, r.SampledIPC,
			100*r.RelErr, 100*r.RelCI95, r.FullKIPS, r.EffKIPS, r.Speedup)
	}
	return b.String()
}
