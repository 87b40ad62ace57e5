// Package hotfix exercises hotpathalloc: every allocation-inducing
// construct inside the hot closure, the waiver and coldpath escapes, the
// guarded-tracing exemption, and cross-package fact checking.
package hotfix

import (
	"fmt"

	"hotdep"
	"ptrace"
)

type plain interface{ Do() int }

// Core drives the fixture cycle loop.
type Core struct {
	tr   *ptrace.Tracer
	buf  []int
	ws   [][]int
	m    map[int]int
	name string
	ch   chan int
	ex   hotdep.Exec
	p    plain
	out  func(int)
	sum  int
}

// Step is the per-cycle entry point.
//
//lint:hotpath
func (c *Core) Step(n int) int {
	c.buf = append(c.buf, n)     // self-append reuses capacity: ok
	c.buf = append(c.buf[:0], n) // truncate-append reuses capacity: ok
	c.ws[0] = append(c.ws[0], n) // indexed self-append reuses capacity: ok
	c.buf = make([]int, 8)       // want `make in hot path allocates`
	c.buf = make([]int, 8)       //lint:alloc deliberate arena refill, amortized
	p := new(int)                // want `new in hot path allocates`
	_ = p
	var other []int
	other = append(c.buf, n) // want `append result is not reassigned to its first argument`
	_ = other
	w := []int{n} // want `slice literal in hot path allocates`
	c.sum += w[0]
	delete(c.m, n) // want `map delete in hot path`
	v := c.m[n]    // want `map access in hot path`
	c.sum += v
	for k := range c.m { // want `range over map in hot path`
		c.sum += k
	}
	c.ch <- n      // want `channel send in hot path`
	f := func() {} // want `closure literal in hot path allocates`
	f()
	go c.helper(n)       // want `go statement in hot path allocates a goroutine`
	defer c.helper(n)    // want `defer in hot path may allocate`
	fmt.Println()        // want `fmt\.Println in hot path allocates`
	s := c.name + "!"    // want `string concatenation in hot path allocates`
	bs := []byte(c.name) // want `\[\]byte\(string\) conversion in hot path allocates`
	c.sum += len(s) + len(bs)
	c.helper(n)
	c.sum += hotdep.Fast(n)
	c.sum += hotdep.Slow(n) // want `hot path calls hotdep\.Slow which is not hot-path-verified`
	c.sum += c.ex.Step(n)   // hot interface, verified via fact: ok
	c.sum += c.p.Do()       // want `through interface plain which is not marked //lint:hotpath`
	c.out(n)                // dynamic call through a func value: off-budget by contract
	c.sink(n)               // want `int value boxed into interface`
	c.sum += c.varfn(1, n)  // want `variadic call to varfn allocates its argument slice`
	if c.tr != nil {
		c.tr.Fetch(uint64(n), fmt.Sprintf("pc=%d", n)) // guarded tracing: off the fast path
	}
	c.dump()
	c.dumpf("cold variadic call: off-budget, arguments included", n)
	if c.sum < 0 {
		panic(fmt.Sprintf("impossible sum %d", n)) // panic aborts: arguments off-budget
	}
	return c.sum
}

// helper is reached from Step, so it is checked transitively.
func (c *Core) helper(n int) {
	c.m[n] = n // want `map access in hot path`
}

// sink boxes whatever it is handed.
func (c *Core) sink(v any) {
	if v == nil {
		c.sum++
	}
}

func (c *Core) varfn(xs ...int) int { return len(xs) }

// dump prints diagnostics when the simulation is already failing.
//
//lint:coldpath invoked only on fatal diagnostics, never per cycle
func (c *Core) dump() {
	fmt.Println(c.sum)
}

// dumpf mirrors the fault-constructor pattern: cold, so hot callers may
// build its variadic arguments freely.
//
//lint:coldpath fault construction; a fault aborts the run
func (c *Core) dumpf(msg string, args ...any) {
	fmt.Println(msg, args)
}

// traceStall mirrors the early-return trace helpers: everything after
// the terminating nil guard is the traced path.
//
//lint:hotpath
func (c *Core) traceStall(n int) {
	if c.tr == nil {
		return
	}
	c.tr.Commit(uint64(n))
	fmt.Println(n)
}

// box returns its operand as an interface.
//
//lint:hotpath
func (c *Core) box(n int) any {
	if n == 0 {
		return nil // untyped nil: ok
	}
	return n // want `int value boxed into interface`
}

// Unit implements hotdep.Exec, a hot interface from a dependency, so
// Step is rooted here even without its own annotation.
type Unit struct{ m map[int]int }

func (u *Unit) Step(n int) int {
	return u.m[n] // want `map access in hot path`
}

// Machine embeds a dependency's shell, as the emulators embed emu.Shell.
type Machine struct {
	hotdep.Shell
	err error
	out string
}

// Step calls the dependency's cold fault constructor directly, with
// allocating arguments: off-budget, as a local cold callee would be. An
// unannotated method of the same dependency is still flagged.
//
//lint:hotpath
func (m *Machine) Step(n int) {
	if n < 0 {
		m.err = m.Faultf("bad step %d at %#x", n, m.PC)
	}
	m.out = m.Describe() // want `hot path calls hotdep\.Describe which is not hot-path-verified`
}

// bystander is not reachable from any root: allocations are fine.
func (c *Core) bystander() []int {
	return make([]int, 64)
}

// GenUnit implements hotdep.Policy[int], a generic hot interface from a
// dependency: method-name coverage roots its methods here even though
// types.Implements cannot see through the uninstantiated interface.
type GenUnit struct{ m map[int]int }

func (g *GenUnit) Rename(v int) bool { return v > 0 }

func (g *GenUnit) Execute(v int) int {
	return g.m[v] // want `map access in hot path`
}

// Halfway shares one method name with the generic interface but not the
// full set, so it is not an implementation and stays off-budget.
type Halfway struct{ m map[int]int }

func (h *Halfway) Execute(v int) int { return h.m[v] }
