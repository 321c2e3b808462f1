// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes a run fully
// deterministic for a given program: there is no dependence on map iteration
// order, goroutine interleaving or wall-clock time.
//
// Virtual time is measured in nanoseconds and represented by Time. The
// helpers Microseconds/Milliseconds/Seconds build durations in the units
// the EARTH paper reports.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Duration construction helpers.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds returns d expressed as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns d expressed as a float64 number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns d expressed as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMicroseconds converts a float64 microsecond count to a Time.
func FromMicroseconds(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// FromMilliseconds converts a float64 millisecond count to a Time.
func FromMilliseconds(ms float64) Time { return Time(math.Round(ms * float64(Millisecond))) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). It is a
// concrete, fully inlined implementation: pushing and popping move event
// values directly within the backing slice, with no interface conversions
// and no per-operation allocations (the slice grows amortised). The 4-ary
// layout halves the tree height of a binary heap, trading slightly more
// sibling comparisons per level for fewer cache-missing levels — a good
// fit for the short-deadline churn a discrete-event simulation generates.
//
// The queue is short (tens of events in a fine-grain run), so a pop costs
// what its compares mispredict, not what it misses in cache. Both sifts
// therefore compare keys arithmetically (lt), pick the least of four
// siblings by masking rather than branching, and move a hole through the
// tree — one store per level — instead of swapping; the one key-dependent
// branch left per level is "stop here?".
type eventHeap []event

// lt returns 1 when a fires before b — earlier deadline first, FIFO by
// sequence number within an instant — and 0 otherwise. (at, seq) is
// compared as one 128-bit unsigned value: the borrow out of the low-word
// subtraction chains into the high-word one. Reading at as unsigned is
// correct only while no queued time is negative, which At guarantees: the
// clock starts at 0, never moves backwards, and At rejects t < now.
func lt(a, b *event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

func (h eventHeap) peek() event   { return h[0] }
func (h eventHeap) isEmpty() bool { return len(h) == 0 }

// pushEvent adds e, moving the hole at the tail up to e's place.
func (h *eventHeap) pushEvent(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if lt(&e, &s[parent]) == 0 {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// popEvent removes and returns the earliest event, moving the hole at the
// root down to where the displaced tail element belongs.
func (h *eventHeap) popEvent() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	tail := s[n]
	s[n] = event{} // release the closure reference
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = i<<2 + 1 {
		best := c
		if c+3 < n {
			// Full sibling group: two pairwise rounds and a final, each a
			// select (x += (y-x) & -lt) rather than a branch.
			other := c + 2
			best += lt(&s[c+1], &s[c])
			other += lt(&s[c+3], &s[c+2])
			best += (other - best) & -lt(&s[other], &s[best])
		} else {
			// Partial group (1–3 children), only ever at the last level.
			for c++; c < n; c++ {
				best += (c - best) & -lt(&s[c], &s[best])
			}
		}
		if lt(&s[best], &tail) == 0 {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = tail
	return top
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use. Engines are not safe for concurrent use: all events run on the
// goroutine that calls Step or RunBefore.
type Engine struct {
	now Time
	seq uint64
	pq  eventHeap
	// Events counts the total number of events dispatched.
	Events uint64
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Reset returns e to a new engine's state — clock, sequence and event count
// at zero, nothing queued — keeping the queue's storage: a queue's order
// does not depend on its capacity, so a reset engine dispatches exactly
// what a new one would.
func (e *Engine) Reset() {
	clear(e.pq)
	*e = Engine{pq: e.pq[:0]}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it would corrupt causality. As the clock starts at 0,
// this also keeps every queued time non-negative, which lt relies on.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.pq.pushEvent(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds of virtual time from now.
// Negative d panics, and so does a d that takes now past the largest Time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t := e.now + d
	if t < e.now {
		panic(fmt.Sprintf("sim: delay overflows Time: %v after now %v", d, e.now))
	}
	e.At(t, fn)
}

// Peek returns the timestamp of the earliest pending event, or false when
// the queue is empty. It does not advance the clock or dispatch anything.
func (e *Engine) Peek() (Time, bool) {
	if e.pq.isEmpty() {
		return 0, false
	}
	return e.pq.peek().at, true
}

// RunBefore dispatches events with timestamps strictly before end, leaving
// the clock at the last dispatched event (the clock is NOT advanced to
// end). It is the building block for conservative time-windowed parallel
// simulation: a window [start, end) is exhausted when RunBefore returns,
// but the engine's notion of "now" stays at real activity so that
// subsequent At calls at any t >= the last event remain legal. Follow-on
// events that window work schedules for instants still before end are
// dispatched in the same call.
func (e *Engine) RunBefore(end Time) Time {
	for !e.pq.isEmpty() && e.pq.peek().at < end {
		ev := e.pq.popEvent()
		e.now = ev.at
		e.Events++
		ev.fn()
	}
	return e.now
}

// Step dispatches exactly one event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if e.pq.isEmpty() {
		return false
	}
	ev := e.pq.popEvent()
	e.now = ev.at
	e.Events++
	ev.fn()
	return true
}
