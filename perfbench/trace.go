package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call of the benchmark into a layer of the program.
// Spans of one op share Op; Parent is the span that caused this one (0 at
// the op's root). Times are offsets from the tracer's epoch.
type span struct {
	Name       string
	ID, Parent int64
	Op         int64
	Lane       int
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started but not yet ended.
type open struct {
	t    *tracer
	s    span
	done bool
}

// start opens a span under parent (nil for an op root, which then takes
// the op id and lane given).
func (t *tracer) start(name string, parent *open, op int64, lane int) *open {
	s := span{Name: name, ID: t.nextID.Add(1), Op: op, Lane: lane}
	if parent != nil {
		s.Parent, s.Op, s.Lane = parent.s.ID, parent.s.Op, parent.s.Lane
	}
	s.Start = time.Since(t.epoch)
	return &open{t: t, s: s}
}

// child opens a span under o.
func (o *open) child(name string) *open { return o.t.start(name, o, 0, 0) }

// childLane opens a span under o on its own trace lane (a concurrent
// block).
func (o *open) childLane(name string, lane int) *open {
	c := o.child(name)
	c.s.Lane = lane
	return c
}

// end closes the span and records it.
func (o *open) end() time.Duration {
	if o.done {
		return o.s.dur()
	}
	o.done = true
	o.s.End = time.Since(o.t.epoch)
	o.t.add(o.s)
	return o.s.dur()
}

// add records a span timed elsewhere (the HTTP handler wrapper).
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// opTotals sums span durations by name for each op, and keeps the longest
// single span of each name.
type opTotals struct {
	sum map[string]time.Duration
	max map[string]time.Duration
}

func totalsByOp(spans []span) map[int64]opTotals {
	out := make(map[int64]opTotals)
	for _, s := range spans {
		t, ok := out[s.Op]
		if !ok {
			t = opTotals{sum: map[string]time.Duration{}, max: map[string]time.Duration{}}
			out[s.Op] = t
		}
		t.sum[s.Name] += s.dur()
		if s.dur() > t.max[s.Name] {
			t.max[s.Name] = s.dur()
		}
	}
	return out
}

// uncovered returns how much of root's interval none of its direct
// children covers (children may overlap: concurrent blocks).
func uncovered(root span, spans []span) time.Duration {
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.Parent == root.ID {
			kids = append(kids, [2]time.Duration{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered := time.Duration(0)
	cur := root.Start
	for _, k := range kids {
		lo, hi := k[0], k[1]
		if lo < cur {
			lo = cur
		}
		if hi > root.End {
			hi = root.End
		}
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return root.dur() - covered
}

// traceEvent is one Chrome Trace Event ("X" phase, microseconds).
type traceEvent struct {
	Name  string           `json:"name"`
	Phase string           `json:"ph"`
	TS    float64          `json:"ts"`
	Dur   float64          `json:"dur"`
	PID   int              `json:"pid"`
	TID   int              `json:"tid"`
	Args  map[string]int64 `json:"args"`
}

// write stores the spans as Chrome Trace Event JSON (chrome://tracing,
// Perfetto), with the machine metadata alongside.
func (t *tracer) write(path string, meta machine) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Phase: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		Metadata        machine      `json:"metadata"`
	}{events, "ms", meta})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
