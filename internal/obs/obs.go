// Package obs consumes the event stream both EARTH engines emit through
// earth.Config.Tracer and turns it into artifacts:
//
//   - Recorder keeps the raw events and exports them as a Chrome
//     trace-event JSON file (chrome.go, a streaming encoder), so any run
//     opens in Perfetto or chrome://tracing with one lane per node;
//   - Metrics aggregates per-operation latency/size histograms (thread
//     run length, dispatch delay, message round trips, steal round trips)
//     and the built-in utilisation samples, with a text renderer and a
//     JSON export (metrics.go, hist.go).
//
// All consumers are safe for concurrent use, as livert emits events from
// every node's executor goroutine; under simrt the stream is
// deterministic, which makes exported traces byte-identical across runs
// with the same Config and doubles as a simulator regression check.
//
// simrt hands a finished run's stream over whole (earth.BatchTracer). The
// slice is read-only for everyone it reaches: Recorder keeps it without
// copying while it has nothing else, never writes to it, and hands it out
// from Events as it is; Multi passes the one slice on to each tracer that
// takes batches and replays it to those that do not.
package obs

import (
	"slices"
	"sync"

	"earth/internal/earth"
)

// Recorder is a Tracer that retains the full event stream in memory.
type Recorder struct {
	mu     sync.Mutex
	events []earth.Event
	// adopted says events is read-only — a batch an engine handed over, or
	// the stream Events handed out: its cap equals its len, so appending
	// moves the stream to an array the Recorder owns, and Reset drops it
	// instead of refilling.
	adopted bool
}

var _ earth.BatchTracer = (*Recorder)(nil)

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event appends e to the stream.
func (r *Recorder) Event(e earth.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.adopted = false
	r.mu.Unlock()
}

// EventBatch appends a whole stream. An empty Recorder keeps the slice
// itself, so a simrt run's events are not copied on their way in.
func (r *Recorder) EventBatch(evs []earth.Event) {
	r.mu.Lock()
	if len(r.events) == 0 {
		r.events, r.adopted = slices.Clip(evs), true
	} else {
		r.events, r.adopted = append(r.events, evs...), false
	}
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns the recorded stream in emission order: the Recorder's
// own slice, not a copy, and read-only from then on. The Recorder adopts
// it as it adopts a batch, so a later Event, EventBatch or Reset moves to
// a new array and never writes into what the caller holds.
func (r *Recorder) Events() []earth.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events, r.adopted = slices.Clip(r.events), true
	return r.events
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	if r.adopted {
		r.events, r.adopted = nil, false
	}
	r.events = r.events[:0]
	r.mu.Unlock()
}

// multi fans one event stream out to several tracers.
type multi []earth.Tracer

func (m multi) Event(e earth.Event) {
	for _, t := range m {
		t.Event(e)
	}
}

// EventBatch forwards the one slice to every tracer, whole to those that
// take batches.
func (m multi) EventBatch(evs []earth.Event) {
	for _, t := range m {
		earth.EmitBatch(t, evs)
	}
}

// Multi combines tracers into one; nil entries are dropped. It returns
// nil when nothing remains (so the engines keep their fast path) and the
// tracer itself when only one remains.
func Multi(tracers ...earth.Tracer) earth.Tracer {
	var m multi
	for _, t := range tracers {
		if t != nil {
			m = append(m, t)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}
