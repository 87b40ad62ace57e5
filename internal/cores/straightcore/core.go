package straightcore

import (
	"straight/internal/cores/engine"
	"straight/internal/isa/straight"
	"straight/internal/program"
	"straight/internal/uarch"
)

// BugMulReadyEarly is the InjectBug value for the documented scoreboard
// defect: multiply results are marked ready one cycle after issue while
// the functional unit still needs its full latency, so consumers can
// read a stale physical register.
const BugMulReadyEarly = "mul-ready-early"

// New builds the STRAIGHT cycle simulator for the image: the shared
// engine steered by the distance-addressing policy (operand
// determination per paper Fig 3, single-ROB-entry recovery per §III-B).
// Restart takes a *straightemu.Checkpoint.
func New(cfg uarch.Config, img *program.Image, opts engine.Options) *engine.Core[straight.Inst] {
	return engine.New[straight.Inst](&policy{}, cfg, img, opts)
}
