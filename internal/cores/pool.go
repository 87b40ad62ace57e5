package cores

import (
	"slices"
	"sync"

	"straight/internal/cores/engine"
	"straight/internal/program"
	"straight/internal/uarch"
)

// PoolIdle bounds the idle cores one Pool keeps. A 4-way core is about
// 700 KB of preallocated structures (BenchmarkCoreNew), so a full pool
// holds under 6 MB plus the pages of the programs its cores last ran.
// Eight covers the distinct (machine, configuration) pairs of a figure
// sweep section, or the window cores of a sampled run, with room to
// spare.
const PoolIdle = 8

// Pool recycles idle cycle cores across runs (DESIGN.md §12.3): Get
// resets an idle core of the same machine and configuration onto the
// next image instead of building one, which the engine's Reset
// contract makes bit-identical to a fresh core. Pooled cores are built
// with no construction-time Tracer or Output, so a traced run, or one
// that streams console output, builds its own core with Machine.New.
// A core whose run failed or panicked must not be Put back.
//
// The zero Pool is empty and ready; it is safe for concurrent use. It
// keeps at most PoolIdle idle cores, dropping the least recently
// returned one to make room.
type Pool struct {
	mu    sync.Mutex
	idle  []idleCore // least recently returned first
	built int64
}

type idleCore struct {
	key poolKey
	sim Sim
}

// poolKey is a machine and a configuration by value. Config.L3 is a
// pointer, so the key holds the L3 geometry it points to: two equal
// configurations built separately share cores.
type poolKey struct {
	machine string
	cfg     uarch.Config // L3 cleared
	l3      uarch.CacheConfig
	hasL3   bool
}

func keyOf(m Machine, cfg uarch.Config) poolKey {
	k := poolKey{machine: m.Name}
	if cfg.L3 != nil {
		k.l3, k.hasL3 = *cfg.L3, true
	}
	cfg.L3 = nil
	k.cfg = cfg
	return k
}

// Get returns a core of machine m and configuration cfg at power-on
// state over img: the most recently returned matching idle core, Reset
// onto img, or a new one. cfg must pass Config.Check.
func (p *Pool) Get(m Machine, cfg uarch.Config, img *program.Image) Sim {
	k := keyOf(m, cfg)
	p.mu.Lock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if c := p.idle[i]; c.key == k {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.mu.Unlock()
			c.sim.Reset(img)
			return c.sim
		}
	}
	p.built++
	p.mu.Unlock()
	return m.New(cfg, img, engine.Options{})
}

// Put returns a core that Get gave out for machine m and configuration
// cfg, once its run has succeeded.
func (p *Pool) Put(m Machine, cfg uarch.Config, s Sim) {
	k := keyOf(m, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) == PoolIdle {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
	p.idle = append(p.idle, idleCore{key: k, sim: s})
}

// Built reports how many cores Get has constructed.
func (p *Pool) Built() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built
}
