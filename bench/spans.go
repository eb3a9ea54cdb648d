package main

// In-memory span tracing for the traced run. Spans are recorded by the
// benchmark around each call into a layer of the system; nothing inside
// the system is instrumented. They stay in memory and are written once,
// at exit.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call: its name, the trace it belongs to (one trace
// per batch rep, per live generation, per reload or per sampled
// request), its parent span (0 for a trace root), and its interval in
// nanoseconds since the tracer started.
type Span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer collects spans. A nil *Tracer records nothing, so untraced code
// paths call the same methods at the cost of a nil check.
type Tracer struct {
	base time.Time
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{base: time.Now()} }

// OpenSpan is a span that has started and not yet ended.
type OpenSpan struct {
	t *Tracer
	s Span
}

// Open starts a span at the given instant under an explicit trace and
// parent; parent 0 opens a new trace rooted at this span.
func (t *Tracer) Open(name string, trace, parent uint64, at time.Time) *OpenSpan {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	if parent == 0 {
		trace = id
	}
	return &OpenSpan{t: t, s: Span{Name: name, Trace: trace, ID: id, Parent: parent, Start: int64(at.Sub(t.base))}}
}

// Root starts a new trace now.
func (t *Tracer) Root(name string) *OpenSpan {
	if t == nil {
		return nil
	}
	return t.Open(name, 0, 0, time.Now())
}

// Child starts a child span of o now.
func (o *OpenSpan) Child(name string) *OpenSpan {
	if o == nil {
		return nil
	}
	return o.ChildAt(name, time.Now())
}

// ChildAt starts a child span of o at the given instant.
func (o *OpenSpan) ChildAt(name string, at time.Time) *OpenSpan {
	if o == nil {
		return nil
	}
	return o.t.Open(name, o.s.Trace, o.s.ID, at)
}

// End records the span as ending now.
func (o *OpenSpan) End() {
	if o == nil {
		return
	}
	o.EndAt(time.Now())
}

// EndAt records the span as ending at the given instant.
func (o *OpenSpan) EndAt(at time.Time) {
	if o == nil {
		return
	}
	o.s.End = int64(at.Sub(o.t.base))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// IDs returns the span's trace and span identifiers, for handing a
// parent across a process-internal boundary such as an HTTP header.
func (o *OpenSpan) IDs() (trace, id uint64) {
	if o == nil {
		return 0, 0
	}
	return o.s.Trace, o.s.ID
}

// Spans returns a copy of every ended span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// WriteFile writes every ended span to path as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (concurrent stages) are counted once, and the parts of a child
// outside its parent's interval are not counted at all.
func SelfTimes(spans []Span) map[uint64]int64 {
	kids := make(map[uint64][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals
// covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// durationsMs returns the durations, in milliseconds, of every span
// with the given name.
func durationsMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

// rootsNamed returns the trace roots with the given name.
func rootsNamed(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
