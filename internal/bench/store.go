package bench

import (
	"encoding/json"
	"fmt"
	"strconv"
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

// checkStored decodes a stored result and re-checks the counters'
// internal consistency, so a store entry that decodes but carries
// damaged numbers is recomputed instead of trusted. Session.Execute
// runs it on the first read of each stored entry, through resultstore's
// GetChecked. It is a variable only so tests can count its calls.
var checkStored = func(p SweepPoint, raw []byte) error {
	var d ResultData
	if err := json.Unmarshal(raw, &d); err != nil {
		return err
	}
	if !p.Core.Cycle() {
		return nil
	}
	if d.Stats == nil {
		return fmt.Errorf("stored cycle-core result has no stats")
	}
	return d.Stats.Check(p.Config)
}
