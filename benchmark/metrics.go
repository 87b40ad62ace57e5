package main

import (
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit. The names, units and order
// here are the ones BENCHMARK.json declares (a test holds them equal).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"program_kips", "kinst/s"},
	{"alloc_kb_per_op", "KB"},
}

var perLayer = []metricDef{
	{"minic.parse_ms", "ms"},
	{"irgen.build_ms", "ms"},
	{"ir.optimize_ms", "ms"},
	{"straightbe.compile_ms", "ms"},
	{"riscvbe.compile_ms", "ms"},
	{"sasm.assemble_ms", "ms"},
	{"rasm.assemble_ms", "ms"},
	{"sverify.check_ms", "ms"},
	{"image.insts.straight", "insts"},
	{"image.insts.riscv", "insts"},
	{"bench.build_hit_ratio", "ratio"},
	{"bench.point_key_us", "us"},
	{"bench.encode_us", "us"},
	{"bench.decode_us", "us"},
	{"bench.parallel_eff", "ratio"},
	{"engine.new_ms", "ms"},
	{"engine.kips", "kinst/s"},
	{"engine.kcps", "kcycle/s"},
	{"engine.skip_frac", "ratio"},
	{"engine.oracle_bound", "ratio"},
	{"straightemu.mips", "MIPS"},
	{"riscvemu.mips", "MIPS"},
	{"sampling.ff_frac", "ratio"},
	{"sampling.ff_mips", "MIPS"},
	{"sampling.window_kips", "kinst/s"},
	{"sampling.windows", "count"},
	{"sampling.warm_tax", "ratio"},
	{"sampling.ipc_err_pct", "%"},
	{"resultstore.get_p50_us", "us"},
	{"resultstore.get_p99_us", "us"},
	{"resultstore.put_p50_us", "us"},
	{"resultstore.put_p99_us", "us"},
	{"resultstore.hit_ratio", "ratio"},
	{"resultstore.live_kb", "KB"},
	{"served.overhead_frac", "ratio"},
	{"served.coalesce_ratio", "ratio"},
	{"served.points_failed", "count"},
	{"host.peak_rss_mb", "MB"},
	{"host.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

// endToEndMetrics computes the untraced run's metrics. Each is the
// median over its samples: setups, operations or rounds.
func endToEndMetrics(setups []float64, ph phase) map[string]summary {
	var opsPerS, kips, kbPerOp []float64
	for _, r := range ph.rounds {
		secs := r.wall.Seconds()
		opsPerS = append(opsPerS, ratio(float64(len(r.lat)), secs))
		kips = append(kips, ratio(float64(r.insts), secs)/1000)
		kbPerOp = append(kbPerOp, ratio(float64(r.allocs), float64(len(r.lat)))/1024)
	}
	return map[string]summary{
		"setup_s":         summarize("s", setups),
		"op_p50_ms":       summarize("ms", scaled(ph.latencies(), time.Millisecond)),
		"ops_per_s":       summarize("1/s", opsPerS),
		"program_kips":    summarize("kinst/s", kips),
		"alloc_kb_per_op": summarize("KB", kbPerOp),
	}
}

// layerMetrics computes the traced run's metrics from its spans and
// counts. plain is the untraced phase run just before the traced one,
// which the tracing overhead is measured against.
func layerMetrics(tr *tracer, plain, traced phase) map[string]summary {
	tr.selfTimes()
	m := map[string]summary{}
	self := func(name, span string, unit time.Duration, unitName string) {
		m[name] = summarize(unitName, scaled(tr.selfOf(span), unit))
	}
	one := func(name, unit string, v float64) { m[name] = summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }
	tail := func(name, span string, p float64) {
		d := scaled(tr.durOf(span), time.Microsecond)
		v := percentile(d, p)
		m[name] = summary{Value: v, Unit: "us", Q1: v, Q3: v, N: len(d)}
	}

	for _, s := range []string{"minic.parse", "irgen.build", "ir.optimize", "straightbe.compile",
		"riscvbe.compile", "sasm.assemble", "rasm.assemble", "sverify.check"} {
		self(s+"_ms", s, time.Millisecond, "ms")
	}
	c := tr.counts
	one("image.insts.straight", "insts", ratio(c["image.insts.straight"], c["image.builds.straight"]))
	one("image.insts.riscv", "insts", ratio(c["image.insts.riscv"], c["image.builds.riscv"]))
	one("bench.build_hit_ratio", "ratio", 1-ratio(c["build.misses"], c["build.calls"]))
	self("bench.point_key_us", "bench.point_key", time.Microsecond, "us")
	self("bench.encode_us", "bench.encode", time.Microsecond, "us")
	self("bench.decode_us", "bench.decode", time.Microsecond, "us")
	var eff []float64
	for _, r := range traced.rounds {
		var busy time.Duration
		for _, l := range r.lat {
			busy += l
		}
		eff = append(eff, ratio(busy.Seconds(), float64(r.workers)*r.wall.Seconds()))
	}
	m["bench.parallel_eff"] = summarize("ratio", eff)

	self("engine.new_ms", "engine.new", time.Millisecond, "ms")
	var retired, cycles, skipped, runSecs, oracleSecs float64
	emuByImage := map[string]float64{}
	emuInsts := map[string]float64{}
	emuSecs := map[string]float64{}
	for _, e := range tr.emus {
		emuByImage[e.image] += e.duration.Seconds()
		isa, _, _ := strings.Cut(e.image, "/")
		emuInsts[isa] += float64(e.insts)
		emuSecs[isa] += e.duration.Seconds()
	}
	for _, r := range tr.runs {
		retired += float64(r.retired)
		cycles += float64(r.cycles)
		skipped += float64(r.skipped)
		runSecs += r.duration.Seconds()
		oracleSecs += emuByImage[r.image]
	}
	one("engine.kips", "kinst/s", ratio(retired, runSecs)/1000)
	one("engine.kcps", "kcycle/s", ratio(cycles, runSecs)/1000)
	one("engine.skip_frac", "ratio", ratio(skipped, cycles))
	one("engine.oracle_bound", "ratio", ratio(oracleSecs, runSecs))
	one("straightemu.mips", "MIPS", ratio(emuInsts["straight"], emuSecs["straight"])/1e6)
	one("riscvemu.mips", "MIPS", ratio(emuInsts["riscv"], emuSecs["riscv"])/1e6)

	one("sampling.ff_frac", "ratio", ratio(c["sampling.ff_s"], c["sampling.wall_s"]))
	one("sampling.ff_mips", "MIPS", ratio(c["sampling.insts"], c["sampling.ff_s"])/1e6)
	one("sampling.window_kips", "kinst/s", ratio(c["sampling.window_insts"], c["sampling.window_s"])/1000)
	one("sampling.windows", "count", ratio(c["sampling.windows"], c["sampling.runs"]))
	one("sampling.warm_tax", "ratio", ratio(c["sampling.ff_s"], c["sampling.emu_s"]))
	one("sampling.ipc_err_pct", "%", ratio(c["sampling.err_pct_sum"], c["sampling.err_n"]))

	tail("resultstore.get_p50_us", "resultstore.get", 0.50)
	tail("resultstore.get_p99_us", "resultstore.get", 0.99)
	tail("resultstore.put_p50_us", "resultstore.put", 0.50)
	tail("resultstore.put_p99_us", "resultstore.put", 0.99)
	one("resultstore.hit_ratio", "ratio", ratio(c["store.hits"], c["store.gets"]))
	var live []float64
	for _, r := range traced.rounds {
		live = append(live, float64(r.liveBytes)/1024)
	}
	m["resultstore.live_kb"] = summarize("KB", live)

	var rtt, exec float64
	for _, s := range tr.spans {
		switch {
		case s.Name == "served.rtt":
			rtt += (s.End - s.Start).Seconds()
		case s.Name == "served.exec" && s.Parent != 0:
			exec += (s.End - s.Start).Seconds()
		}
	}
	one("served.overhead_frac", "ratio", ratio(rtt-exec, rtt))
	one("served.coalesce_ratio", "ratio", ratio(c["served.coalesced"], c["served.coalesced"]+c["served.executed"]))
	one("served.points_failed", "count", c["served.failed"])

	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		one("host.peak_rss_mb", "MB", float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	one("host.gc_cpu_frac", "ratio", ms.GCCPUFraction)
	base := median(scaled(plain.latencies(), time.Microsecond))
	one("trace.overhead_pct", "%", 100*(ratio(median(scaled(traced.latencies(), time.Microsecond)), base)-1))
	return m
}
