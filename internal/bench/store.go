package bench

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"straight/internal/cores"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// This file wires the persistent content-addressed result store
// (internal/resultstore, DESIGN.md §14) into the sweep runner: every
// point derives a key from all of its result-affecting inputs, looks it
// up before simulating, and records what it computed. The simulator
// version salt is a property of the store file itself (stamped by
// whoever opens it, normally from internal/perf.VersionSalt), not of
// the per-point keys.

// resultSchema versions the key derivation AND the ResultData encoding:
// bump it whenever either changes shape, so old entries miss instead of
// decoding wrongly.
const resultSchema = "straight-bench-point-v1"

var resultStore atomic.Pointer[resultstore.Store]

// SetStore installs (or, with nil, removes) the package-level result
// store consulted by every executed sweep point.
func SetStore(s *resultstore.Store) { resultStore.Store(s) }

// ResultStore returns the installed store (nil = none).
func ResultStore() *resultstore.Store { return resultStore.Load() }

// StoreCounts aggregates result-store activity: Hits were served
// without simulation, Misses were looked up and absent, Recomputes were
// actually simulated (every miss recomputes; a forced recompute — no
// store installed, or a traced point — counts here without a miss).
type StoreCounts struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Recomputes int64 `json:"recomputes"`
}

var (
	storeCountsMu  sync.Mutex
	storeTotals    StoreCounts
	storeBySection = make(map[string]*StoreCounts)
)

func bumpStore(section string, f func(*StoreCounts)) {
	storeCountsMu.Lock()
	defer storeCountsMu.Unlock()
	f(&storeTotals)
	sc := storeBySection[section]
	if sc == nil {
		sc = &StoreCounts{}
		storeBySection[section] = sc
	}
	f(sc)
}

// StoreTotals returns the cumulative hit/miss/recompute counters.
func StoreTotals() StoreCounts {
	storeCountsMu.Lock()
	defer storeCountsMu.Unlock()
	return storeTotals
}

// StoreCountsBySection returns a copy of the per-section counters
// (keyed by SweepPoint.Section).
func StoreCountsBySection() map[string]StoreCounts {
	storeCountsMu.Lock()
	defer storeCountsMu.Unlock()
	out := make(map[string]StoreCounts, len(storeBySection))
	for k, v := range storeBySection {
		out[k] = *v
	}
	return out
}

// ResetStoreStats zeroes the counters (test helper and daemon reuse).
func ResetStoreStats() {
	storeCountsMu.Lock()
	defer storeCountsMu.Unlock()
	storeTotals = StoreCounts{}
	storeBySection = make(map[string]*StoreCounts)
}

// PointKey derives the content address of a sweep point's result: a
// hash over everything that can change it — the engine kind, the
// workload's actual source bytes (which fold in the iteration count),
// the STRAIGHT compile configuration, and the full core configuration.
// Section and Label are deliberately excluded: the same simulation
// appearing in two figures shares one entry.
func PointKey(p SweepPoint) (resultstore.Key, error) {
	return PointKeyWith(p, nil)
}

// PointKeyWith is PointKey for a caller that already holds config =
// json.Marshal(p.Config): the daemon marshals each distinct
// configuration of a job once and shares the bytes among its points.
// A nil config is marshalled here; it is read only for cycle cores.
func PointKeyWith(p SweepPoint, config []byte) (resultstore.Key, error) {
	prefix, count, suffix, err := workloads.SourceParts(p.Workload, p.Iters)
	if err != nil {
		return resultstore.Key{}, err
	}
	isa, err := p.Core.isa()
	if err != nil {
		return resultstore.Key{}, err
	}
	kh := resultstore.NewKeyHasher(resultSchema)
	kh.String("core", string(p.Core))
	kh.String("workload", string(p.Workload))
	kh.Strings("source", prefix, strconv.Itoa(count), suffix)
	if isa == cores.ISAStraight {
		kh.String("mode", string(p.Mode))
		kh.Int("maxdist", int64(p.MaxDist))
	}
	if p.Core.Cycle() {
		if config == nil {
			if config, err = json.Marshal(p.Config); err != nil {
				return resultstore.Key{}, fmt.Errorf("%s: hashing config: %w", p.Name(), err)
			}
		}
		kh.Bytes("config", config)
	}
	return kh.Sum(), nil
}

// ResultData is the serializable payload of a PointResult — everything
// except the point identity and the runtime-only trace handle. It is
// both the result-store value encoding and the daemon wire format.
type ResultData struct {
	Cycles  int64   `json:"cycles,omitempty"`
	Retired uint64  `json:"retired"`
	IPC     float64 `json:"ipc,omitempty"`
	Output  string  `json:"output,omitempty"`
	// WallNS is the wall time of the original simulation in integer
	// nanoseconds (exact round trip, so a warm journal is byte-identical
	// to the cold one that recorded it).
	WallNS      int64              `json:"wall_ns"`
	Stats       *uarch.Stats       `json:"stats,omitempty"`
	EmuRISCV    *riscvemu.Stats    `json:"emu_riscv,omitempty"`
	EmuStraight *straightemu.Stats `json:"emu_straight,omitempty"`
}

// Data extracts the serializable payload of a result.
func (r PointResult) Data() ResultData {
	return ResultData{
		Cycles:      r.Cycles,
		Retired:     r.Retired,
		IPC:         r.IPC,
		Output:      r.Output,
		WallNS:      int64(r.Wall),
		Stats:       r.Stats,
		EmuRISCV:    r.EmuRISCV,
		EmuStraight: r.EmuStraight,
	}
}

// Result rebuilds a PointResult for point p from its payload.
func (d ResultData) Result(p SweepPoint, cached bool) PointResult {
	return PointResult{
		Point:       p,
		Cycles:      d.Cycles,
		Retired:     d.Retired,
		IPC:         d.IPC,
		Output:      d.Output,
		Wall:        time.Duration(d.WallNS),
		Cached:      cached,
		Stats:       d.Stats,
		EmuRISCV:    d.EmuRISCV,
		EmuStraight: d.EmuStraight,
	}
}

// decodeStored rebuilds a cached result and re-checks the counters'
// internal consistency, so a store entry that decodes but carries
// damaged numbers is recomputed instead of trusted. ExecutePoint runs
// it on every read; ExecuteWire on the first read of each stored
// entry, through resultstore's GetChecked.
func decodeStored(p SweepPoint, raw []byte) (PointResult, error) {
	var d ResultData
	if err := json.Unmarshal(raw, &d); err != nil {
		return PointResult{}, err
	}
	if p.Core.Cycle() {
		if d.Stats == nil {
			return PointResult{}, fmt.Errorf("stored cycle-core result has no stats")
		}
		if err := d.Stats.Check(p.Config); err != nil {
			return PointResult{}, err
		}
	}
	return d.Result(p, true), nil
}

// ---- interrupt flag ----

// interruptFlag is polled by the cycle cores once per advance and by
// the runner before each point, so a signal handler can cancel a sweep
// mid-simulation (DESIGN.md §14).
var interruptFlag atomic.Bool

// Interrupt requests cancellation of every in-flight and queued sweep
// point; affected points fail with uarch.ErrInterrupted.
func Interrupt() { interruptFlag.Store(true) }

// ClearInterrupt re-arms the package after an Interrupt (daemon
// restart-in-process and tests).
func ClearInterrupt() { interruptFlag.Store(false) }

// Interrupted reports whether Interrupt has been called.
func Interrupted() bool { return interruptFlag.Load() }
