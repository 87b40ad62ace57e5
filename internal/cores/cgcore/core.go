// Package cgcore is a CG-OoO-style coarse-grain out-of-order core
// (arXiv 1606.01607), built as a thin policy over the shared engine: it
// reuses the superscalar policy's rename, recovery and retirement
// (internal/cores/sscore) and adds block-granular issue — instructions
// issue in program order within a block (a control-terminated or
// size-capped dispatch group) and out of order across blocks. The model
// serves as a third comparison column between the fully out-of-order SS
// baseline and STRAIGHT: it quantifies how much of SS's IPC survives
// when the select logic is coarsened to block granularity.
package cgcore

import (
	"straight/internal/cores/engine"
	"straight/internal/isa/riscv"
	"straight/internal/program"
	"straight/internal/uarch"
)

// New builds the coarse-grain OoO comparison core for the image. The
// block-size knob is cfg.CGBlockSize (0 = default 8). The InjectBug
// value it understands is engine.BugFreeListEarlyReclaim, inherited from
// the embedded superscalar rename policy, which also makes Restart take
// a *riscvemu.Checkpoint.
func New(cfg uarch.Config, img *program.Image, opts engine.Options) *engine.Core[riscv.Inst] {
	return engine.New[riscv.Inst](&policy{}, cfg, img, opts)
}
