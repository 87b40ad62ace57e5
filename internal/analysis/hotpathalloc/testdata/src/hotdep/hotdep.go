// Package hotdep provides cross-package callees for the hotfix fixture:
// a verified hot function, an unverified one, cold fault constructors,
// and a hot interface whose implementations downstream packages must
// verify.
package hotdep

import "fmt"

// Exec is a per-class execution unit invoked every cycle.
//
//lint:hotpath
type Exec interface {
	Step(n int) int
}

// Fast is on the cycle path and allocation-free.
//
//lint:hotpath
func Fast(x int) int { return x + 1 }

// Slow is not hot-path-verified.
func Slow(x int) int {
	out := make([]int, x)
	return len(out)
}

// Policy is a generic hot interface in the style of a core policy:
// implementations cannot be matched with types.Implements (the method
// signatures mention the type parameter), so root discovery falls back
// to method-set coverage.
//
//lint:hotpath
type Policy[T any] interface {
	Rename(v T) bool
	Execute(v T) int
}

// Shell is embedded by downstream machines, which call its methods as
// their own.
type Shell struct{ PC uint32 }

// Faultf builds an error; hot callers reach it only when the run is
// already failing.
//
//lint:coldpath fault construction; a fault aborts the run
func (s *Shell) Faultf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// Describe is not annotated: neither hot-path-verified nor cold.
func (s *Shell) Describe() string { return fmt.Sprint(s.PC) }
