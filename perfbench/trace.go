package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the index of the enclosing span (-1 at top
// level); Iter groups the spans of one workload iteration.
type span struct {
	Name   string        `json:"name"`
	Iter   int           `json:"iter"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns a no-op, so the timed run executes the
// same calls without recording anything.
type tracer struct {
	origin time.Time
	iter   int
	open   []int // stack of open span indexes
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns the function that closes it. Spans
// nest by call order: a span begun while another is open is its child.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Iter: t.iter, Parent: parent, Start: time.Since(t.origin)})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// totals returns each span name's summed duration and summed self time
// (its duration minus the part its child spans cover).
func (t *tracer) totals() (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	if t == nil {
		return total, self
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return total, self
}

// writeJSON dumps every span, one JSON object per line.
func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
