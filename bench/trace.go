package main

import (
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded only by the benchmark's own files, around calls into the
// layers' public functions; nothing inside the program under test is
// instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a rep's root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Count is 1 for a plain call. An aggregated span stands for Count
	// calls whose summed duration is EndNS-StartNS, so per-closure timing
	// costs no memory per call.
	Count int64 `json:"count"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: call runs fn and records nothing, so the measured reps
// execute exactly the same benchmark code with tracing off.
type tracer struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
	stack    []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times fn as a child of the innermost open span and returns the
// new span's ID (-1 when untraced).
func (t *tracer) call(name string, fn func()) int {
	if t == nil {
		fn()
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep, Count: 1})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].StartNS, t.spans[id].EndNS = int64(start), int64(end)
	return id
}

// aggregate records count calls totalling ns as one child of the ended
// span parent (the engine Run that executed them). The total is measured
// apart from the parent, so it is clamped to it: a child never outlasts
// its parent.
func (t *tracer) aggregate(parent int, name string, ns, count int64) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	ns = min(ns, p.EndNS-p.StartNS)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: p.ID, Name: name, Workload: t.workload,
		Rep: t.rep, StartNS: p.StartNS, EndNS: p.StartNS + ns, Count: count})
}
