package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// drain steps e until its queue is empty and returns the clock.
func drain(e *Engine) Time {
	for e.Step() {
	}
	return e.Now()
}

func TestZeroValueReady(t *testing.T) {
	var e Engine
	ran := false
	e.After(5, func() { ran = true })
	drain(&e)
	if !ran {
		t.Fatal("event did not run")
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5", e.Now())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []Time
	times := []Time{50, 10, 30, 20, 40, 10}
	for _, tm := range times {
		tm := tm
		e.At(tm, func() { order = append(order, tm) })
	}
	drain(e)
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("ran %d events, want %d", len(order), len(times))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	drain(e)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.At(10, func() {
		trace = append(trace, "a")
		e.After(5, func() { trace = append(trace, "c") })
		e.After(0, func() { trace = append(trace, "b") })
	})
	end := drain(e)
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if end != 15 {
		t.Fatalf("end = %d, want 15", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	drain(e)
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestStep(t *testing.T) {
	e := New()
	var n int
	e.At(1, func() { n++ })
	e.At(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("step on empty queue reported true")
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: regardless of the (random) scheduling pattern, the observed
	// clock at each event is non-decreasing and every event runs.
	f := func(seed int64, raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := New()
		rng := rand.New(rand.NewSource(seed))
		var last Time = -1
		ran := 0
		var schedule func(depth int, d Time)
		schedule = func(depth int, d Time) {
			e.After(d, func() {
				if e.Now() < last {
					t.Errorf("clock went backwards: %d -> %d", last, e.Now())
				}
				last = e.Now()
				ran++
				if depth > 0 && rng.Intn(2) == 0 {
					schedule(depth-1, Time(rng.Intn(50)))
					ran-- // will be re-counted when nested event runs
					ran++
				}
			})
		}
		want := len(raw)
		for _, r := range raw {
			schedule(0, Time(r))
		}
		drain(e)
		return ran >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical runs must produce identical traces.
	run := func() []Time {
		e := New()
		rng := rand.New(rand.NewSource(42))
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			e.After(Time(rng.Intn(100)), func() {
				trace = append(trace, e.Now())
				if depth < 3 {
					spawn(depth + 1)
					spawn(depth + 1)
				}
			})
		}
		spawn(0)
		spawn(0)
		drain(e)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		us   float64
		ms   float64
		s    float64
		text string
	}{
		{1500 * Microsecond, 1500, 1.5, 0.0015, "1.500ms"},
		{2 * Second, 2e6, 2000, 2, "2.000s"},
		{750, 0.75, 0.00075, 7.5e-7, "750ns"},
		{3 * Microsecond, 3, 0.003, 3e-6, "3.000us"},
	}
	for _, c := range cases {
		if got := c.in.Microseconds(); got != c.us {
			t.Errorf("%d.Microseconds() = %g, want %g", int64(c.in), got, c.us)
		}
		if got := c.in.Milliseconds(); got != c.ms {
			t.Errorf("%d.Milliseconds() = %g, want %g", int64(c.in), got, c.ms)
		}
		if got := c.in.Seconds(); got != c.s {
			t.Errorf("%d.Seconds() = %g, want %g", int64(c.in), got, c.s)
		}
		if got := c.in.String(); got != c.text {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.text)
		}
	}
	if got := FromMicroseconds(2.5); got != 2500 {
		t.Errorf("FromMicroseconds(2.5) = %d", got)
	}
	if got := FromMilliseconds(7.82); got != 7820000 {
		t.Errorf("FromMilliseconds(7.82) = %d", got)
	}
}

func TestFromRoundTripProperty(t *testing.T) {
	f := func(us uint32) bool {
		return FromMicroseconds(float64(us)) == Time(us)*Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPeek(t *testing.T) {
	e := New()
	if _, ok := e.Peek(); ok {
		t.Fatal("Peek on empty engine reported an event")
	}
	e.At(30, func() {})
	e.At(10, func() {})
	at, ok := e.Peek()
	if !ok || at != 10 {
		t.Fatalf("Peek = %v, %v; want 10, true", at, ok)
	}
	if e.Now() != 0 {
		t.Fatalf("Peek advanced the clock to %v", e.Now())
	}
	drain(e)
	if _, ok := e.Peek(); ok {
		t.Fatal("Peek after drain reported an event")
	}
}

func TestRunBeforeStrictAndClock(t *testing.T) {
	e := New()
	var ran []Time
	for _, at := range []Time{5, 10, 20, 20, 35} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunBefore(20)
	if len(ran) != 2 || ran[0] != 5 || ran[1] != 10 {
		t.Fatalf("RunBefore(20) ran %v; want [5 10]", ran)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %v after RunBefore(20); want 10 (last event, not the bound)", e.Now())
	}
	// The boundary event itself must wait for the next window.
	e.RunBefore(21)
	if len(ran) != 4 {
		t.Fatalf("RunBefore(21) left %d events run; want 4", len(ran))
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v; want 20", e.Now())
	}
	// Scheduling at any instant >= the last event stays legal even though
	// the window bound was further out.
	e.At(20, func() { ran = append(ran, 20) })
	drain(e)
	if len(ran) != 6 {
		t.Fatalf("final run count %d; want 6", len(ran))
	}
}

func TestRunBeforeFollowOnEvents(t *testing.T) {
	// Work scheduled by window events for instants still inside the window
	// runs in the same RunBefore call.
	e := New()
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) }) // 15 < 20: same window
		e.After(15, func() { got = append(got, e.Now()) })
	})
	e.RunBefore(20)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("RunBefore(20) dispatched %v; want [10 15]", got)
	}
	if at, ok := e.Peek(); !ok || at != 25 {
		t.Fatalf("Peek = %v, %v; want the out-of-window event at 25 to remain", at, ok)
	}
}

func TestRunBeforeEmptyWindow(t *testing.T) {
	e := New()
	e.At(50, func() {})
	if now := e.RunBefore(40); now != 0 {
		t.Fatalf("RunBefore over an empty window moved the clock to %v", now)
	}
	if at, ok := e.Peek(); !ok || at != 50 {
		t.Fatalf("Peek = %v, %v; want the event at 50 to remain", at, ok)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%97), func() {})
		if i%1024 == 1023 {
			drain(e)
		}
	}
	drain(e)
}

// TestResetMatchesNew: an engine reset with events still queued keeps its
// queue's storage, pins none of the dropped callbacks, and then dispatches
// a random schedule exactly as a new engine does — same order, same clock,
// same count.
func TestResetMatchesNew(t *testing.T) {
	schedule := func(e *Engine, rng *rand.Rand) (order []int) {
		for i := range 200 {
			e.At(Time(rng.Intn(50)), func() {
				order = append(order, i)
				if i%3 == 0 {
					e.After(Time(rng.Intn(5)), func() { order = append(order, -i) })
				}
			})
		}
		drain(e)
		return order
	}
	reused := New()
	for i := range 1000 {
		reused.At(Time(i%7), func() {})
	}
	reused.Step()
	grown := cap(reused.pq)
	reused.Reset()
	if cap(reused.pq) != grown || reused.Now() != 0 || reused.Events != 0 || reused.seq != 0 {
		t.Fatalf("after Reset: cap %d (was %d), clock %v, %d events, seq %d", cap(reused.pq), grown, reused.Now(), reused.Events, reused.seq)
	}
	for i, ev := range reused.pq[:cap(reused.pq)] {
		if ev.fn != nil {
			t.Fatalf("Reset left a callback in slot %d", i)
		}
	}
	fresh := New()
	want := schedule(fresh, rand.New(rand.NewSource(1)))
	got := schedule(reused, rand.New(rand.NewSource(1)))
	if !slices.Equal(got, want) || reused.Now() != fresh.Now() || reused.Events != fresh.Events {
		t.Fatalf("a reset engine ran %d events to %v, a new one %d to %v, or in another order",
			reused.Events, reused.Now(), fresh.Events, fresh.Now())
	}
}
