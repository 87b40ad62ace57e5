package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"straight/internal/bench"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/program"
)

// emuInsnCap bounds an oracle run, as internal/bench bounds its
// functional runs.
const emuInsnCap = 4_000_000_000

// expect is what the functional emulator says a program does.
type expect struct {
	output string
	insts  uint64
	exit   int32
}

// checker holds the oracle's answers and every distinct simulated result
// the run produced. Simulation is deterministic, so each result identity
// must map to one result; the hash over them is the run's stats_sha256.
type checker struct {
	mu      sync.Mutex
	want    map[string]expect // imageKey -> emulator outcome
	results map[string][]byte // result identity -> canonical encoding
}

func newChecker() *checker {
	return &checker{want: map[string]expect{}, results: map[string][]byte{}}
}

// oracle runs the functional emulator once on each distinct image the
// points use.
func (c *checker) oracle(b *builder, pts []bench.SweepPoint) error {
	for _, p := range pts {
		key := imageKey(p)
		if _, done := c.want[key]; done {
			continue
		}
		im, err := b.image(p, 0, 0)
		if err != nil {
			return err
		}
		e, err := emulate(b.tr, isa(p), key, im)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", key, err)
		}
		c.want[key] = e
	}
	return nil
}

// emulate runs an image to completion on its ISA's functional emulator.
func emulate(tr *tracer, isaName, key string, im *program.Image) (expect, error) {
	var out bytes.Buffer
	id := tr.start(isaName+"emu.run", 0, 0)
	start := time.Now()
	var (
		n        uint64
		err      error
		exited   bool
		exitCode int32
	)
	if isaName == "straight" {
		m := straightemu.New(im)
		m.SetOutput(&out)
		n, err = m.Run(emuInsnCap)
		exited, exitCode = m.Exited()
	} else {
		m := riscvemu.New(im)
		m.SetOutput(&out)
		n, err = m.Run(emuInsnCap)
		exited, exitCode = m.Exited()
	}
	tr.emu(emuRun{image: key, insts: n, duration: time.Since(start)})
	tr.end(id)
	if err != nil {
		return expect{}, err
	}
	if !exited {
		return expect{}, fmt.Errorf("did not exit within %d instructions", uint64(emuInsnCap))
	}
	return expect{output: out.String(), insts: n, exit: exitCode}, nil
}

// point checks a cycle-level point result against the oracle and
// records it. exit is nil where the path does not report an exit code.
func (c *checker) point(res bench.PointResult, exit *int32) error {
	p := res.Point
	c.mu.Lock()
	want, ok := c.want[imageKey(p)]
	c.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("%s: no oracle result", p.Name())
	case res.Stats == nil:
		return fmt.Errorf("%s: result has no cycle statistics", p.Name())
	case res.Output != want.output:
		return fmt.Errorf("%s: console output %q, emulator printed %q", p.Name(), res.Output, want.output)
	case res.Retired != want.insts:
		return fmt.Errorf("%s: retired %d instructions, emulator %d", p.Name(), res.Retired, want.insts)
	case exit != nil && *exit != want.exit:
		return fmt.Errorf("%s: exit code %d, emulator %d", p.Name(), *exit, want.exit)
	}
	d := res.Data()
	d.WallNS = 0
	enc, err := json.Marshal(d)
	if err != nil {
		return err
	}
	// Label may carry a per-job suffix; the result's identity is the
	// simulation, which the label does not affect.
	return c.record(strings.SplitN(p.Label, "#", 2)[0], enc)
}

// record stores one result's canonical encoding under its identity and
// fails if the same identity produced a different result before.
func (c *checker) record(id string, enc []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.results[id]; ok && !bytes.Equal(prev, enc) {
		return fmt.Errorf("%s: simulated result changed between repetitions", id)
	}
	c.results[id] = enc
	return nil
}

// statsHash is the SHA-256 over every distinct simulated result, in
// identity order: equal hashes mean equal simulated statistics.
func (c *checker) statsHash() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.results))
	for id := range c.results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
		h.Write(c.results[id])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
