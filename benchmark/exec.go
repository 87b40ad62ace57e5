package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"time"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/bench"
	"straight/internal/cores/cgcore"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/program"
	"straight/internal/rasm"
	"straight/internal/resultstore"
	"straight/internal/sasm"
	"straight/internal/sverify"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// simCycleCap matches the cycle cap internal/bench runs points under.
const simCycleCap = 2_000_000_000

// isa names the image a point runs: STRAIGHT points run STRAIGHT code,
// the rename-based cores (SS, CG) share the RISC-V build.
func isa(p bench.SweepPoint) string {
	if p.Core == bench.CoreStraight {
		return "straight"
	}
	return "riscv"
}

// imageKey identifies a point's compiled image. Every STRAIGHT point
// here compiles RE+ at the same distance bound, so ISA, workload and
// iterations pick the image.
func imageKey(p bench.SweepPoint) string {
	return fmt.Sprintf("%s/%s/%d", isa(p), p.Workload, p.Iters)
}

// builder compiles images. Untraced, it is internal/bench's shared build
// cache. Traced, it repeats the compile stages internal/bench runs, one
// span each, with its own exactly-once cache.
type builder struct {
	tr *tracer

	mu     sync.Mutex
	images map[string]*buildSlot
}

type buildSlot struct {
	once sync.Once
	im   *program.Image
	err  error
}

func newBuilder(tr *tracer) *builder {
	return &builder{tr: tr, images: map[string]*buildSlot{}}
}

// reset drops every image built so far (a cold sweep starts empty).
func (b *builder) reset() {
	if b.tr == nil {
		bench.ResetBuildCache()
		return
	}
	b.mu.Lock()
	b.images = map[string]*buildSlot{}
	b.mu.Unlock()
}

// image returns p's compiled image.
func (b *builder) image(p bench.SweepPoint, parent int, op int64) (*program.Image, error) {
	if b.tr == nil {
		if p.Core == bench.CoreStraight {
			return bench.BuildSTRAIGHT(p.Workload, p.Iters, p.MaxDist, p.Mode)
		}
		return bench.BuildRISCV(p.Workload, p.Iters)
	}
	key := imageKey(p)
	b.mu.Lock()
	slot := b.images[key]
	if slot == nil {
		slot = &buildSlot{}
		b.images[key] = slot
	}
	b.mu.Unlock()
	b.tr.count("build.calls", 1)
	slot.once.Do(func() {
		b.tr.count("build.misses", 1)
		id := b.tr.start("build", parent, op)
		slot.im, slot.err = b.compile(p, id, op)
		b.tr.end(id)
		if slot.err == nil {
			b.tr.count("image.builds."+isa(p), 1)
			b.tr.count("image.insts."+isa(p), float64(len(slot.im.Text)))
		}
	})
	return slot.im, slot.err
}

// compile is internal/bench's build pipeline, stage by stage.
func (b *builder) compile(p bench.SweepPoint, parent int, op int64) (*program.Image, error) {
	tr := b.tr
	src, err := workloads.Source(p.Workload, p.Iters)
	if err != nil {
		return nil, err
	}
	var file *minic.File
	if err := tr.call("minic.parse", parent, op, func() (err error) { file, err = minic.Parse(src); return }); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Workload, err)
	}
	var mod *ir.Module
	if err := tr.call("irgen.build", parent, op, func() (err error) { mod, err = irgen.Build(file); return }); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Workload, err)
	}
	tr.call("ir.optimize", parent, op, func() error { ir.OptimizeModule(mod); return nil })

	var im *program.Image
	if p.Core != bench.CoreStraight {
		var asm string
		if err := tr.call("riscvbe.compile", parent, op, func() (err error) { asm, err = riscvbe.Compile(mod); return }); err != nil {
			return nil, err
		}
		err := tr.call("rasm.assemble", parent, op, func() (err error) { im, err = rasm.Assemble(asm); return })
		return im, err
	}
	var asm string
	if err := tr.call("straightbe.compile", parent, op, func() (err error) {
		asm, err = straightbe.Compile(mod, straightbe.Options{
			MaxDistance:    p.MaxDist,
			RedundancyElim: p.Mode == bench.ModeREP,
		})
		return
	}); err != nil {
		return nil, err
	}
	if err := tr.call("sasm.assemble", parent, op, func() (err error) { im, err = sasm.Assemble(asm); return }); err != nil {
		return nil, err
	}
	if err := tr.call("sverify.check", parent, op, func() error {
		return sverify.Check(im, sverify.Config{MaxDistance: p.MaxDist})
	}); err != nil {
		return nil, fmt.Errorf("%s d=%d %s: %w", p.Workload, p.MaxDist, p.Mode, err)
	}
	return im, nil
}

// sim is the surface of the three cycle-core wrappers used here.
type sim interface {
	Run(opts engine.Options) (*engine.Result, error)
	SkipStats() uarch.SkipStats
}

func newSim(p bench.SweepPoint, im *program.Image) (sim, error) {
	opts := engine.Options{MaxCycles: simCycleCap}
	switch p.Core {
	case bench.CoreStraight:
		return straightcore.New(p.Config, im, opts), nil
	case bench.CoreSS:
		return sscore.New(p.Config, im, opts), nil
	case bench.CoreCG:
		return cgcore.New(p.Config, im, opts), nil
	}
	return nil, fmt.Errorf("%s: %s is not a cycle core", p.Name(), p.Core)
}

// outcome is a traced point's result plus what the untraced path does
// not return: the program's exit code.
type outcome struct {
	res  bench.PointResult
	exit *int32 // nil when the result came from the store
}

// tracedPoint executes a sweep point the way bench.ExecutePoint does —
// key, store lookup, build, simulate, check, encode, store — from the
// same public calls, with a span around each.
func tracedPoint(b *builder, st *resultstore.Store, p bench.SweepPoint, parent int, op int64) (outcome, error) {
	tr := b.tr
	var key resultstore.Key
	if err := tr.call("bench.point_key", parent, op, func() (err error) { key, err = bench.PointKey(p); return }); err != nil {
		return outcome{}, err
	}
	var raw []byte
	var hit bool
	tr.call("resultstore.get", parent, op, func() error { raw, hit = st.Get(key); return nil })
	tr.count("store.gets", 1)
	if hit {
		tr.count("store.hits", 1)
		d, err := decodeResult(tr, p, raw, parent, op)
		if err != nil {
			return outcome{}, err
		}
		return outcome{res: d.Result(p, true)}, nil
	}

	start := time.Now()
	im, err := b.image(p, parent, op)
	if err != nil {
		return outcome{}, err
	}
	var s sim
	if err := tr.call("engine.new", parent, op, func() (err error) { s, err = newSim(p, im); return }); err != nil {
		return outcome{}, err
	}
	var r *engine.Result
	runStart := time.Now()
	err = tr.call("engine.run", parent, op, func() (err error) { r, err = s.Run(engine.Options{MaxCycles: simCycleCap}); return })
	runTime := time.Since(runStart)
	if err != nil {
		return outcome{}, err
	}
	tr.engine(engineRun{image: imageKey(p), retired: r.Stats.Retired, cycles: r.Stats.Cycles,
		skipped: s.SkipStats().SkippedCycles, duration: runTime})
	if err := tr.call("uarch.check", parent, op, func() error { return r.Stats.Check(p.Config) }); err != nil {
		return outcome{}, err
	}
	res := bench.PointResult{Point: p, Cycles: r.Stats.Cycles, Retired: r.Stats.Retired,
		IPC: r.Stats.IPC(), Output: r.Output, Wall: time.Since(start), Stats: &r.Stats}
	var enc []byte
	if err := tr.call("bench.encode", parent, op, func() (err error) { enc, err = json.Marshal(res.Data()); return }); err != nil {
		return outcome{}, err
	}
	if err := tr.call("resultstore.put", parent, op, func() error { return st.Put(key, enc) }); err != nil {
		return outcome{}, err
	}
	exit := r.ExitCode
	return outcome{res: res, exit: &exit}, nil
}

// decodeResult decodes a stored point result and re-checks its
// counters, as internal/bench does before trusting a stored entry.
func decodeResult(tr *tracer, p bench.SweepPoint, raw []byte, parent int, op int64) (bench.ResultData, error) {
	var d bench.ResultData
	if err := tr.call("bench.decode", parent, op, func() error { return json.Unmarshal(raw, &d) }); err != nil {
		return d, err
	}
	if d.Stats == nil {
		return d, fmt.Errorf("%s: stored result has no stats", p.Name())
	}
	err := tr.call("uarch.check", parent, op, func() error { return d.Stats.Check(p.Config) })
	return d, err
}

// readBack checks that the store holds exactly the result an operation
// returned: the "stored" half of a stored, checked result.
func readBack(tr *tracer, st *resultstore.Store, res bench.PointResult, parent int, op int64) error {
	p := res.Point
	key, err := bench.PointKey(p)
	if err != nil {
		return err
	}
	var raw []byte
	var ok bool
	tr.call("resultstore.get", parent, op, func() error { raw, ok = st.Get(key); return nil })
	if !ok {
		return fmt.Errorf("%s: result was not stored", p.Name())
	}
	d, err := decodeResult(tr, p, raw, parent, op)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(d, res.Data()) {
		return fmt.Errorf("%s: stored result differs from the returned one", p.Name())
	}
	return nil
}
