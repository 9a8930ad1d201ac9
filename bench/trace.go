package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the bench into a layer of the program.
// Spans nest: Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans around the bench's own calls, in memory, and
// writes them out when the run ends. It is driven from the one goroutine
// that drives the scenario, so it takes no lock. A nil tracer records
// nothing: end-to-end runs are measured with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNS = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// durations returns every closed span's duration under the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// total sums the durations of the named spans.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes is each span name's time net of the part its child spans
// cover — where a layer's own time went, as opposed to its callees'.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	if t == nil {
		return self
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - child[i])
	}
	return self
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
