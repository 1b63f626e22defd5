package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one replayed operation
// share Op; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End − Start minus the part covered by child spans; it is
	// filled in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps the spans of one traced replay in memory. The replay is
// sequential, so one stack of open spans is enough.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts the next replayed operation.
func (t *tracer) nextOp() { t.op++ }

// do runs f inside a span and returns the span's index.
func (t *tracer) do(name string, f func()) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	f()
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return id
}

// seconds returns the duration of every span of the given name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// meanS is the mean duration of the named spans, and whether there were any.
func (t *tracer) meanS(name string) (float64, bool) {
	d := t.seconds(name)
	return mean(d), len(d) > 0
}

// write computes self times and saves the spans as JSON.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
