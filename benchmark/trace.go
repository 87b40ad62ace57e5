package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded only by this
// package, around the public calls it makes, and kept in memory until
// the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0: a root span
	Op     int64         `json:"op"`               // the operation the span served
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"` // filled by selfTimes
}

// engineRun is one detailed simulation seen by the tracer.
type engineRun struct {
	image    string
	retired  uint64
	cycles   int64
	skipped  int64
	duration time.Duration
}

// emuRun is one standalone functional-emulator run.
type emuRun struct {
	image    string
	insts    uint64
	duration time.Duration
}

// tracer collects spans and the counts recorded at the same boundaries.
// A nil *tracer records nothing, so traced helpers also serve untraced
// callers that have no span to report.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	runs   []engineRun
	emus   []emuRun
	counts map[string]float64
	// rttSpan maps a daemon job's op id to its round-trip span, so the
	// daemon-side spans of that job can name it as their parent.
	rttSpan map[int64]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, rttSpan: map[int64]int{}}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) spanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// add records a span whose bounds were measured elsewhere (the phases
// sampling.Report.Timing reports inside one sampled run).
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// call runs f inside a span.
func (t *tracer) call(name string, parent int, op int64, f func() error) error {
	id := t.start(name, parent, op)
	err := f()
	t.end(id)
	return err
}

func (t *tracer) count(name string, delta float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

func (t *tracer) engine(r engineRun) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.runs = append(t.runs, r)
	t.mu.Unlock()
}

func (t *tracer) emu(r emuRun) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emus = append(t.emus, r)
	t.mu.Unlock()
}

// emuSeconds is the standalone emulator time recorded for an image.
func (t *tracer) emuSeconds(image string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, e := range t.emus {
		if e.image == image {
			s += e.duration.Seconds()
		}
	}
	return s
}

func (t *tracer) setRTTSpan(op int64, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rttSpan[op] = id
	t.mu.Unlock()
}

func (t *tracer) rttSpanOf(op int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rttSpan[op]
}

// selfTimes fills every span's self time: its duration minus the part
// of its interval that its child spans cover.
func (t *tracer) selfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		cur, curEnd := s.Start, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur = lo
			}
			curEnd = max(curEnd, hi)
		}
		covered += curEnd - cur
		s.Self = s.End - s.Start - covered
	}
}

// selfOf returns the self times of every span with the given name.
func (t *tracer) selfOf(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Self)
		}
	}
	return out
}

// durOf returns the durations of every span with the given name.
func (t *tracer) durOf(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
