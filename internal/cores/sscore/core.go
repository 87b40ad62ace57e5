package sscore

import (
	"straight/internal/cores/engine"
	"straight/internal/isa/riscv"
	"straight/internal/program"
	"straight/internal/uarch"
)

// New builds the conventional-superscalar baseline for the image: the
// shared engine steered by the RMT/free-list rename policy with
// tail-first ROB-walk recovery (paper §V-A). The InjectBug value it
// understands is engine.BugFreeListEarlyReclaim; Restart takes a
// *riscvemu.Checkpoint.
func New(cfg uarch.Config, img *program.Image, opts engine.Options) *engine.Core[riscv.Inst] {
	return engine.New[riscv.Inst](&Policy{}, cfg, img, opts)
}
