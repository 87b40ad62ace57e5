//go:build !race

package core

// raceEnabled reports whether the race detector is active. The
// allocation budget skips under -race: instrumentation inserts its own
// allocations.
const raceEnabled = false
