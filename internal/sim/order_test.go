package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// panicMessage runs fn and returns what it panicked with ("" if it did not).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestAtRejectsPast pins the invariant lt's unsigned compare leans on: no
// time before now — and so, the clock starting at 0, no negative time —
// ever reaches the queue.
func TestAtRejectsPast(t *testing.T) {
	fresh := New()
	if msg := panicMessage(func() { fresh.At(-1, func() {}) }); !strings.Contains(msg, "before now") {
		t.Errorf("At(-1) on a fresh engine: panic %q, want one naming the past", msg)
	}
	if at, ok := fresh.Peek(); ok {
		t.Errorf("rejected event was queued at %d", at)
	}
	e := New()
	var msg string
	e.At(10, func() { msg = panicMessage(func() { e.At(e.Now()-1, func() {}) }) })
	drain(e)
	if !strings.Contains(msg, "before now") {
		t.Errorf("At(now-1) mid-run: panic %q, want one naming the past", msg)
	}
}

// TestNoNegativeTimes checks the clock cannot be moved below zero by a
// negative window end, so At's t >= now check keeps implying t >= 0.
func TestNoNegativeTimes(t *testing.T) {
	e := New()
	e.At(0, func() {})
	if got := e.RunBefore(-5); got != 0 {
		t.Errorf("RunBefore(-5) = %d, want 0", got)
	}
	if at, ok := e.Peek(); !ok || at != 0 {
		t.Errorf("after RunBefore(-5) Peek = %d, %v; want the event at 0 still queued", at, ok)
	}
}

func TestAfterOverflowPanics(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.Step()
	msg := panicMessage(func() { e.After(math.MaxInt64, func() {}) })
	if !strings.Contains(msg, "delay overflows Time") {
		t.Errorf("After(MaxInt64) at now=10: panic %q, want \"delay overflows Time\"", msg)
	}
	// The largest delay that still fits is legal.
	e.After(math.MaxInt64-10, func() {})
	if at, _ := e.Peek(); at != math.MaxInt64 {
		t.Errorf("After(MaxInt64-10) at now=10 queued at %d, want MaxInt64", at)
	}
}

// orderModel is the reference the heap is checked against: an engine whose
// queue is a slice kept in (at, seq) order by a stable sort on at alone —
// slice order is scheduling order, so stability is the FIFO tie-break.
type orderModel struct {
	now     Time
	seq     uint64
	pending []modelEvent
	sorted  bool // nothing scheduled since the last sort
}

// modelEvent is one scheduled event. An event with spawn >= 0 schedules a
// follow-on that long after it fires, as handlers do.
type modelEvent struct {
	at    Time
	seq   uint64
	spawn Time
}

// fired is one dispatch: which event ran and what the clock read.
type fired struct {
	at  Time
	seq uint64
}

func (m *orderModel) at(t, spawn Time) {
	m.seq++
	m.pending = append(m.pending, modelEvent{at: t, seq: m.seq, spawn: spawn})
	m.sorted = false
}

// runWhile dispatches in order while ok(earliest deadline) holds, at most
// limit events (limit < 0: no limit).
func (m *orderModel) runWhile(limit int, ok func(Time) bool) (out []fired) {
	for ; limit != 0 && len(m.pending) > 0; limit-- {
		if !m.sorted {
			sort.SliceStable(m.pending, func(i, j int) bool { return m.pending[i].at < m.pending[j].at })
			m.sorted = true
		}
		ev := m.pending[0]
		if !ok(ev.at) {
			break
		}
		m.pending = m.pending[1:]
		m.now = ev.at
		out = append(out, fired{ev.at, ev.seq})
		if ev.spawn >= 0 {
			m.at(satAdd(ev.at, ev.spawn), -1)
		}
	}
	return out
}

// peek is the earliest pending deadline, as Engine.Peek reports it.
func (m *orderModel) peek() (Time, bool) {
	if len(m.pending) == 0 {
		return 0, false
	}
	at := m.pending[0].at
	for _, ev := range m.pending[1:] {
		at = min(at, ev.at)
	}
	return at, true
}

// satAdd is t + d clamped to the largest Time.
func satAdd(t, d Time) Time {
	if d > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + d
}

// orderHarness drives an Engine and the model with the same calls and
// fails on the first dispatch, clock reading or next deadline they disagree
// on.
type orderHarness struct {
	t     *testing.T
	e     *Engine
	m     orderModel
	fired []fired
}

func newOrderHarness(t *testing.T) *orderHarness {
	return &orderHarness{t: t, e: New()}
}

func (h *orderHarness) at(t, spawn Time) {
	h.m.at(t, spawn)
	h.schedule(t, spawn)
}

// schedule is the engine half of at; a fired event's follow-on goes through
// it too, taking the next seq at that moment as the model's does.
func (h *orderHarness) schedule(t, spawn Time) {
	seq := h.e.seq + 1
	h.e.At(t, func() {
		h.fired = append(h.fired, fired{h.e.Now(), seq})
		if spawn >= 0 {
			h.schedule(satAdd(h.e.Now(), spawn), -1)
		}
	})
}

// run applies one run operation to both sides and compares what each
// dispatched, then the clocks and the earliest pending deadlines.
func (h *orderHarness) run(op string, limit int, ok func(Time) bool, engine func()) {
	h.t.Helper()
	want := h.m.runWhile(limit, ok)
	h.fired = h.fired[:0]
	engine()
	if len(h.fired) != len(want) {
		h.t.Fatalf("%s: dispatched %d events, model %d", op, len(h.fired), len(want))
	}
	for i, got := range h.fired {
		if got != want[i] {
			h.t.Fatalf("%s: dispatch %d = (at %d, seq %d), model (at %d, seq %d)",
				op, i, got.at, got.seq, want[i].at, want[i].seq)
		}
	}
	if h.e.Now() != h.m.now {
		h.t.Fatalf("%s: Now = %d, model %d", op, h.e.Now(), h.m.now)
	}
	next, queued := h.e.Peek()
	wantNext, wantQueued := h.m.peek()
	if next != wantNext || queued != wantQueued {
		h.t.Fatalf("%s: Peek = %d, %v; model %d, %v", op, next, queued, wantNext, wantQueued)
	}
}

func (h *orderHarness) step() {
	h.t.Helper()
	h.run("Step", 1, func(Time) bool { return true }, func() { h.e.Step() })
}

func (h *orderHarness) runBefore(end Time) {
	h.t.Helper()
	h.run(fmt.Sprintf("RunBefore(%d)", end), -1, func(t Time) bool { return t < end }, func() { h.e.RunBefore(end) })
}

func (h *orderHarness) drain() {
	h.t.Helper()
	h.run("drain", -1, func(Time) bool { return true }, func() { drain(h.e) })
}

// TestHeapSizesAgainstModel fills the queue to each size that gives the
// 4-ary sift a different shape — empty, a lone root, a partial last sibling
// group (2–5), one and two full levels, and three full levels and beyond
// (>= 22) — with colliding deadlines, and drains it against the model.
func TestHeapSizesAgainstModel(t *testing.T) {
	patterns := []struct {
		name string
		at   func(i, n int) Time
	}{
		{"ascending", func(i, n int) Time { return Time(i) }},
		{"descending", func(i, n int) Time { return Time(n - i) }},
		{"one instant", func(i, n int) Time { return 7 }},
		{"pairs", func(i, n int) Time { return Time((i * 7 % 5) / 2) }},
		{"extremes", func(i, n int) Time { return []Time{math.MaxInt64, 0, math.MaxInt64 - 1, 1}[i%4] }},
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 9, 21, 22, 23, 85, 86, 200} {
		for _, p := range patterns {
			t.Run(fmt.Sprintf("n=%d/%s", n, p.name), func(t *testing.T) {
				h := newOrderHarness(t)
				for i := 0; i < n; i++ {
					h.at(p.at(i, n), -1)
				}
				// Pop half one at a time, refill a few at the current
				// instant (FIFO behind what is already there), drain.
				for i := 0; i < n/2; i++ {
					h.step()
				}
				for i := 0; i < 3 && n > 0; i++ {
					h.at(h.e.Now(), -1)
				}
				h.drain()
				if h.e.Step() {
					t.Fatal("Step on a drained queue reported an event")
				}
			})
		}
	}
}

// fuzzDeltas are the offsets from now FuzzEventOrder schedules at: equal
// instants (FIFO by seq), neighbours, a spread, and the top of the range,
// where an ordering that read at as signed-after-subtraction would wrap.
var fuzzDeltas = [...]Time{0, 0, 1, 1, 2, 3, 17, 1000, math.MaxInt64 / 2, math.MaxInt64 - 1, math.MaxInt64}

// FuzzEventOrder model-checks the event queue: the byte string drives
// interleaved At / Step / RunBefore calls (two bytes per call: operation,
// then delta), some events scheduling a follow-on when they fire, and every
// dispatched (at, seq), the clock and the next deadline must be the ones
// the stable-sort reference yields.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 0})                                // three at one instant, then Step
	f.Add([]byte{0, 10, 0, 9, 0, 8, 0, 0, 5, 0, 5, 0, 5, 0, 5, 0})       // near-MaxInt64 deadlines against now
	f.Add([]byte{3, 0x45, 4, 0x63, 6, 6, 0, 1, 6, 7, 5, 0})              // a follow-on scheduled inside a RunBefore window runs in it
	f.Add([]byte{0, 7, 0, 8, 5, 0, 5, 0, 0, 0, 0, 2, 6, 10, 0, 0, 5, 0}) // clock jumps to the top half of the range
	f.Add([]byte("\x00\x06\x01\x05\x02\x04\x03\x03\x04\x02\x00\x01" +    // 30 events: three full levels
		"\x00\x00\x01\x06\x02\x05\x03\x04\x04\x03\x00\x02\x01\x01\x02\x00" +
		"\x03\x06\x04\x05\x00\x04\x01\x03\x02\x02\x03\x01\x04\x00\x00\x06" +
		"\x01\x05\x02\x04\x03\x03\x04\x02\x00\x01\x01\x00\x06\x07\x05\x00\x06\x06"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024] // the model is quadratic in the worst case
		}
		h := newOrderHarness(t)
		for i := 0; i+1 < len(prog); i += 2 {
			d := fuzzDeltas[int(prog[i+1])%len(fuzzDeltas)]
			target := satAdd(h.e.Now(), d)
			switch op := prog[i] % 7; op {
			case 0, 1, 2:
				h.at(target, -1)
			case 3, 4:
				// A handler that schedules its successor.
				h.at(target, fuzzDeltas[int(prog[i+1]>>4)%len(fuzzDeltas)])
			case 5:
				h.step()
			case 6:
				h.runBefore(target)
			}
		}
		h.drain()
	})
}
