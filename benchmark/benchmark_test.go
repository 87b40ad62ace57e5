package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"straight/internal/bench"
	"straight/internal/perf"
	"straight/internal/resultstore"
)

func quickOptions(t *testing.T, workload string, trace int) options {
	return options{workload: workload, seed: 1, seconds: 1, trace: trace, work: t.TempDir(), quick: true}
}

// Every workload completes a quick run, untraced and traced, with every
// declared metric and no failed operation.
func TestEveryWorkloadRuns(t *testing.T) {
	for _, name := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			rec, err := runOne(quickOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !rec.Correct || rec.Attempted == 0 || rec.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d errors=%v",
					name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := rec.Metrics[d.name]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", name, trace, d.name)
				}
			}
			if trace == 0 {
				for _, d := range endToEnd {
					if v := rec.Metrics[d.name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
					}
				}
			}
		}
	}
}

// The metrics the program emits are exactly the ones BENCHMARK.json
// declares, with the same units, in the same order.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program emits %v", layer, perLayer)
	}
}

// The same seed generates the same inputs; another seed, other inputs.
func TestSeedDeterminism(t *testing.T) {
	gen := func(seed uint64) any {
		return []any{mixPoints(seed, fullScale, "x"), longPoints(seed, fullScale), sampledRuns(seed, fullScale)}
	}
	if !reflect.DeepEqual(gen(7), gen(7)) {
		t.Error("seed 7 generated different inputs twice")
	}
	if reflect.DeepEqual(gen(7), gen(8)) {
		t.Error("seeds 7 and 8 generated the same inputs")
	}
	a, b := rng(7, streamClient), rng(7, streamClient)
	for i := 0; i < 100; i++ {
		if a.IntN(30) != b.IntN(30) {
			t.Fatal("a client's job stream is not deterministic")
		}
	}
}

// canonical is a result's payload without its wall time.
func canonical(t *testing.T, res bench.PointResult) string {
	d := res.Data()
	d.WallNS = 0
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The traced rebuild of a point computes exactly what bench.ExecutePoint
// computes, so per-layer numbers describe the real path.
func TestTracedPointMatchesExecutePoint(t *testing.T) {
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{Salt: perf.VersionSalt()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := newBuilder(newTracer())
	bench.ResetBuildCache()
	for _, seed := range []uint64{1, 2} {
		for _, p := range mixPoints(seed, quickScale, "test") {
			want, err := bench.ExecutePoint(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tracedPoint(b, st, p, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.res.Cached {
				continue // an earlier seed already stored this point
			}
			if canonical(t, got.res) != canonical(t, want) {
				t.Errorf("seed %d %s: traced result differs from bench.ExecutePoint", seed, p.Name())
			}
		}
	}
}

// daemon-warm's traced executor answers every job as the daemon's
// default executor does.
func TestTracedDaemonMatchesDefault(t *testing.T) {
	e := &env{sc: quickScale, seed: 1, dir: t.TempDir(), check: newChecker()}
	w := newDaemonWarm(e)
	if _, _, err := w.setup(newTracer()); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, p := range w.pts {
		want, err := w.plain.clients[0].Run([]bench.SweepPoint{p})
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.traced.clients[1].Run([]bench.SweepPoint{p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0].Data(), want[0].Data()) || got[0].Cached != want[0].Cached {
			t.Errorf("%s: traced daemon returned %+v, default %+v", p.Name(), got[0].Data(), want[0].Data())
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		higher bool
		want   string
	}{
		{shift(1.2), true, "improved"},
		{shift(1.2), false, "worse"},
		{shift(0.8), false, "improved"},
		{shift(1.01), false, "no worse"},
		{[]float64{50, 150, 100, 100, 100, 100, 100, 100, 100, 100}, true, "no worse"},
	} {
		if got, _ := verdict(base, tc.change, tc.higher, 0.1); got != tc.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", tc.change, tc.higher, got, tc.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _ := verdict(wide, wide, true, 0.1); got != "unresolved" {
		t.Errorf("a spread wider than the bound gives %s, want unresolved", got)
	}
}
