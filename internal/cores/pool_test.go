package cores

import (
	"fmt"
	"testing"

	"straight/internal/sasm"
	"straight/internal/uarch"
)

// TestPoolBound: a pool keeps the PoolIdle most recently returned
// cores and drops older ones, and matches a configuration by value.
func TestPoolBound(t *testing.T) {
	img, err := sasm.Assemble("main:\n    ADDi [0], 0\n    SYS exit, [1]\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Lookup("straight")
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(i int) uarch.Config {
		c := uarch.Straight4Way() // a new L3 pointer per call
		c.Name = fmt.Sprint("cfg-", i)
		return c
	}
	var p Pool
	sims := make([]Sim, PoolIdle+1)
	for i := range sims {
		sims[i] = p.Get(m, cfg(i), img)
	}
	for i, s := range sims {
		p.Put(m, cfg(i), s)
	}
	if n := p.Built(); n != PoolIdle+1 {
		t.Fatalf("built %d cores for %d configurations", n, PoolIdle+1)
	}
	if s := p.Get(m, cfg(PoolIdle), img); s != sims[PoolIdle] {
		t.Error("the most recently returned core was not reused")
	}
	if s := p.Get(m, cfg(1), img); s != sims[1] {
		t.Error("a core within the bound was not reused")
	}
	if p.Get(m, cfg(0), img); p.Built() != PoolIdle+2 {
		t.Error("the least recently returned core was kept past the bound")
	}
}
