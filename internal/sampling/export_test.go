package sampling

import "straight/internal/uarch"

// FastForward runs only the fast-forward of a sampled run, for
// BenchmarkFastForward: the functional emulator with the plan's
// checkpoints (each taken and encoded) and warming schedule, and no
// windows. It returns the program's retired-instruction count.
func FastForward(t *Target, plan Plan) (uint64, error) {
	total, _, err := fastForward(t, plan, Options{}, defaultMaxInsns, func(point, checkpoint, *uarch.WarmState) {})
	return total, err
}
