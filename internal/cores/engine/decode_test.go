package engine_test

import (
	"testing"

	"straight/internal/bench"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/isa/riscv"
	"straight/internal/isa/straight"
	"straight/internal/program"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// countingPolicy forwards to a real policy and counts Decode calls.
type countingPolicy[I engine.Inst] struct {
	engine.Policy[I]
	decodes int //lint:resetless the count spans Reset and Restart on purpose
}

func (p *countingPolicy[I]) Decode(raw uint32) (I, engine.InstInfo, bool) {
	p.decodes++
	return p.Policy.Decode(raw)
}

// checkDecodeOnce pins the predecode contract: a core decodes each word
// of its image once, when it is built, however many instructions it
// fetches; Reset onto the same image and Restart decode nothing, and
// Reset onto another image decodes exactly that image's text.
func checkDecodeOnce[I engine.Inst](t *testing.T, newCore func(uarch.Config, *program.Image, engine.Options) *engine.Core[I], cfg uarch.Config, img, other *program.Image, ck engine.ArchState) {
	t.Helper()
	pol := &countingPolicy[I]{Policy: engine.PolicyOf(newCore(cfg, img, engine.Options{}))}
	opts := engine.Options{CrossValidate: true, MaxCycles: 200_000_000}
	c := engine.New[I](pol, cfg, img, opts)
	want := len(img.Text)
	check := func(what string) {
		t.Helper()
		if pol.decodes != want {
			t.Fatalf("%s: %d Decode calls, want %d", what, pol.decodes, want)
		}
	}
	run := func(what string) {
		t.Helper()
		res, err := c.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.Stats.FetchedInsts <= uint64(len(img.Text)) {
			t.Fatalf("%s: fetched %d instructions from %d words; the run does not revisit code", what, res.Stats.FetchedInsts, len(img.Text))
		}
		check(what)
	}
	check("New")
	run("full run")
	c.Reset(img)
	check("Reset(same image)")
	c.Reset(nil)
	run("rerun after Reset(nil)")
	if err := c.Restart(img, ck); err != nil {
		t.Fatal(err)
	}
	run("run after Restart")
	c.Reset(other)
	want += len(other.Text)
	check("Reset(other image)")
	if _, err := c.Run(opts); err != nil {
		t.Fatalf("run on other image: %v", err)
	}
	check("run on other image")
}

func TestDecodeOncePerImage(t *testing.T) {
	build := func(w workloads.Workload, riscvISA bool) *program.Image {
		var im *program.Image
		var err error
		if riscvISA {
			im, err = bench.BuildRISCV(w, 2)
		} else {
			im, err = bench.BuildSTRAIGHT(w, 2, 31, bench.ModeREP)
		}
		if err != nil {
			t.Fatal(err)
		}
		return im
	}
	const ckAt = 500 // instructions before the Restart checkpoint

	t.Run("straight", func(t *testing.T) {
		img, other := build(workloads.MicroFib, false), build(workloads.MicroSieve, false)
		m := straightemu.New(img)
		for i := 0; i < ckAt; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		checkDecodeOnce[straight.Inst](t, straightcore.New, uarch.Straight4Way(), img, other, m.Checkpoint())
	})
	t.Run("riscv", func(t *testing.T) {
		img, other := build(workloads.MicroFib, true), build(workloads.MicroSieve, true)
		m := riscvemu.New(img)
		for i := 0; i < ckAt; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		checkDecodeOnce[riscv.Inst](t, sscore.New, uarch.SS4Way(), img, other, m.Checkpoint())
	})
}
