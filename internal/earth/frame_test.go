package earth

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func body(Ctx) {}

func TestNewFrameDimensions(t *testing.T) {
	f := NewFrame(3, 4, 2)
	if f.Home != 3 {
		t.Fatalf("Home = %d, want 3", f.Home)
	}
	f.SetThread(3, body).InitSync(1, 1, 0, 3) // the last thread and slot exist
	if panicMessage(func() { f.SetThread(4, body) }) == "" || panicMessage(func() { f.InitSync(2, 1, 0, 0) }) == "" {
		t.Fatal("thread 4 or slot 2 of a (4,2) frame accepted")
	}
}

func TestNewFramePanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFrame(0, -1, 0)
}

func TestSetThreadRange(t *testing.T) {
	f := NewFrame(0, 2, 0)
	f.SetThread(0, body).SetThread(1, body)
	for _, id := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetThread(%d) did not panic", id)
				}
			}()
			f.SetThread(id, body)
		}()
	}
}

func TestSyncSlotFiresAtZero(t *testing.T) {
	f := NewFrame(0, 2, 1)
	f.SetThread(1, body)
	f.InitSync(0, 3, 3, 1)
	for i := 0; i < 2; i++ {
		if fired, _ := f.Dec(0); fired {
			t.Fatalf("slot fired after %d of 3 syncs", i+1)
		}
	}
	fired, th := f.Dec(0)
	if !fired || th != 1 {
		t.Fatalf("fired=%v thread=%d, want true,1", fired, th)
	}
	// Reset semantics: the next fire takes three more syncs.
	for i := 0; i < 2; i++ {
		if fired, _ := f.Dec(0); fired {
			t.Fatalf("reset slot fired after %d of 3 syncs", i+1)
		}
	}
	if fired, _ := f.Dec(0); !fired {
		t.Fatal("reset slot did not fire on the third sync")
	}
}

func TestOneShotSlotExhausts(t *testing.T) {
	f := NewFrame(0, 1, 1)
	f.SetThread(0, body)
	f.InitSync(0, 1, 0, 0)
	if fired, _ := f.Dec(0); !fired {
		t.Fatal("one-shot did not fire")
	}
	defer func() {
		if recover() == nil {
			t.Error("Dec on exhausted one-shot did not panic")
		}
	}()
	f.Dec(0)
}

func TestDecUninitialisedPanics(t *testing.T) {
	f := NewFrame(0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.Dec(0)
}

func TestInitSyncValidation(t *testing.T) {
	f := NewFrame(0, 1, 1)
	f.SetThread(0, body)
	bad := []struct{ s, c, r, th int }{
		{-1, 1, 0, 0}, {1, 1, 0, 0}, // slot range
		{0, 0, 0, 0},  // count < 1
		{0, 1, -1, 0}, // negative reset
		{0, 1, 0, 1},  // thread out of range
	}
	for i, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f.InitSync(b.s, b.c, b.r, b.th)
		}()
	}
}

func TestSlotFiresExactlyEveryCountProperty(t *testing.T) {
	// Property: with init=count=reset=k, exactly every k-th Dec fires.
	f := func(kRaw uint8, nRaw uint16) bool {
		k := int(kRaw)%17 + 1
		n := int(nRaw) % 500
		fr := NewFrame(0, 1, 1)
		fr.SetThread(0, body)
		fr.InitSync(0, k, k, 0)
		fires := 0
		for i := 1; i <= n; i++ {
			fired, _ := fr.Dec(0)
			if fired != (i%k == 0) {
				return false
			}
			if fired {
				fires++
			}
		}
		return fires == n/k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThreadBodyUnsetPanics(t *testing.T) {
	f := NewFrame(0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.ThreadBody(0)
}

func TestResetReloadSemantics(t *testing.T) {
	// A recurring slot reloads count=reset on fire, even when reset
	// differs from the initial count — the first window is init-sized,
	// every later window is reset-sized.
	f := NewFrame(0, 1, 1)
	f.SetThread(0, body)
	f.InitSync(0, 2, 3, 0)
	var fires []int
	for i := 1; i <= 8; i++ {
		if fired, _ := f.Dec(0); fired {
			fires = append(fires, i)
		}
	}
	want := []int{2, 5, 8} // 2 then every 3
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
}

func TestOneShotDoubleFirePanics(t *testing.T) {
	// Signalling a reset=0 slot past exhaustion is the canonical
	// over-signal bug; without a sanitize ledger it must panic.
	f := NewFrame(0, 1, 1)
	f.SetThread(0, body)
	f.InitSync(0, 1, 0, 0)
	if fired, _ := f.Dec(0); !fired {
		t.Fatal("one-shot slot did not fire")
	}
	defer func() {
		if recover() == nil {
			t.Error("second fire of a one-shot slot did not panic")
		}
	}()
	f.Dec(0)
}

func TestSanitizeModeRecordsInsteadOfPanicking(t *testing.T) {
	// With the ledger attached, the same bug is recorded and swallowed: the run keeps going and the report carries the counts.
	f := NewFrame(0, 2, 1)
	f.SetThread(0, body)
	f.SetThread(1, body)
	f.InitSync(0, 1, 0, 0)
	f.BeginSanitize()
	if !f.Sanitized() {
		t.Fatal("ledger not attached")
	}
	if fired, _ := f.Dec(0); !fired {
		t.Fatal("one-shot slot did not fire")
	}
	// Double fire: swallowed, not panicking, and never reported as fired.
	for i := 0; i < 2; i++ {
		if fired, _ := f.Dec(0); fired {
			t.Fatal("exhausted slot fired again under sanitize")
		}
	}
	f.ThreadBody(0) // thread 0 dispatches; thread 1 never does
	rep := BuildSanitizeReport([]*Frame{f})
	if rep.FramesTracked != 1 || rep.SlotsTracked != 1 {
		t.Fatalf("tracked frames=%d slots=%d, want 1/1", rep.FramesTracked, rep.SlotsTracked)
	}
	want := []SanitizeFinding{
		{Kind: SanOverflow, Home: 0, Threads: 2, Slots: 1, Index: 0, Count: 2, Frames: 1},
		{Kind: SanThreadNeverRan, Home: 0, Threads: 2, Slots: 1, Index: 1, Frames: 1},
	}
	if len(rep.Findings) != len(want) {
		t.Fatalf("findings:\n%s\nwant %d findings", rep, len(want))
	}
	for i := range want {
		if rep.Findings[i] != want[i] {
			t.Errorf("finding %d = %+v, want %+v", i, rep.Findings[i], want[i])
		}
	}
	// BeginSanitize is idempotent: re-attaching must not clear the ledger.
	f.BeginSanitize()
	rep2 := BuildSanitizeReport([]*Frame{f})
	if len(rep2.Findings) != len(want) {
		t.Fatal("re-attaching the ledger cleared recorded violations")
	}
}

var frameSink *Frame

// TestNewFrameOneAllocation pins the layout the applications rely on: a
// frame with at most one thread and one slot is a single heap object no
// larger than the 96-byte size class.
func TestNewFrameOneAllocation(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {1, 0}} {
		n := testing.AllocsPerRun(100, func() { frameSink = NewFrame(0, shape[0], shape[1]) })
		if n != 1 {
			t.Errorf("NewFrame(_, %d, %d) makes %v allocations, want 1", shape[0], shape[1], n)
		}
	}
	if sz := unsafe.Sizeof(Frame{}); sz > 96 {
		t.Errorf("Frame is %d bytes, want <= 96", sz)
	}
}

// TestFrameShapesBeyondInline drives a frame too large for the inline
// arrays, and an empty one, through the whole accessor set.
func TestFrameShapesBeyondInline(t *testing.T) {
	f := NewFrame(1, 2, 3)
	ran := -1
	f.SetThread(0, func(Ctx) { ran = 0 }).SetThread(1, func(Ctx) { ran = 1 })
	f.InitSync(0, 1, 0, 0).InitSync(1, 2, 2, 1).InitSync(2, 2, 0, 1)
	if fired, th := f.Dec(0); !fired || th != 0 {
		t.Errorf("slot 0: fired=%v thread=%d, want true, 0", fired, th)
	}
	if fired, _ := f.Dec(1); fired {
		t.Error("slot 1 fired on the first of two signals")
	}
	if fired, _ := f.Dec(2); fired {
		t.Error("slot 2 fired on the first of two signals")
	}
	fired, th := f.Dec(1)
	if !fired || th != 1 {
		t.Errorf("slot 1: fired=%v thread=%d, want true, 1", fired, th)
	}
	if again, _ := f.Dec(1); again {
		t.Error("slot 1 fired on the first signal after its reset to 2")
	}
	f.ThreadBody(th)(nil)
	if ran != 1 {
		t.Errorf("ThreadBody(%d) ran thread %d", th, ran)
	}

	e := NewFrame(0, 0, 0)
	for name, op := range map[string]func(){
		"SetThread": func() { e.SetThread(0, body) },
		"InitSync":  func() { e.InitSync(0, 1, 0, 0) },
		"Dec":       func() { e.Dec(0) },
	} {
		if msg := panicMessage(op); msg == "" {
			t.Errorf("%s on an empty frame did not panic", name)
		}
	}
}

// panicMessage runs f and returns what it panicked with, "" if it did not.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestSanitizeInlineFrameMatchesLarge misuses slot 0 and thread 0 of an
// inline-backed frame and of a (2,2) one in the same way: the scan reports
// the same findings and events, the frame's recorded shape aside.
func TestSanitizeInlineFrameMatchesLarge(t *testing.T) {
	scan := func(nthreads, nslots int) ([]SanitizeFinding, []Event) {
		f := NewFrame(2, nthreads, nslots)
		f.SetThread(0, body) // never dispatched
		f.InitSync(0, 2, 0, 0)
		f.BeginSanitize()
		f.Dec(0)
		f.Dec(0) // fires
		f.Dec(0) // overflow
		f.Dec(0) // overflow
		var evs eventLog
		rep := sanitizeScan([]*Frame{f}, 77, SinkOf(&evs))
		if rep.FramesTracked != 1 || rep.SlotsTracked != nslots {
			t.Errorf("(%d,%d): tracked %d frames, %d slots", nthreads, nslots, rep.FramesTracked, rep.SlotsTracked)
		}
		for i := range rep.Findings {
			rep.Findings[i].Threads, rep.Findings[i].Slots = 0, 0
		}
		return rep.Findings, evs
	}
	inF, inE := scan(1, 1)
	bigF, bigE := scan(2, 2)
	if len(inF) != 2 {
		t.Fatalf("inline frame: %d findings, want overflow and thread-never-ran: %+v", len(inF), inF)
	}
	if !slices.Equal(inF, bigF) {
		t.Errorf("findings differ:\ninline %+v\n(2,2)  %+v", inF, bigF)
	}
	if !slices.Equal(inE, bigE) {
		t.Errorf("events differ:\ninline %+v\n(2,2)  %+v", inE, bigE)
	}
}

// TestSyncCounterRange checks the 32-bit counters refuse what they cannot
// hold, naming the slot, instead of wrapping.
func TestSyncCounterRange(t *testing.T) {
	over := math.MaxInt32
	over++
	f := NewFrame(0, 1, 1)
	f.SetThread(0, body)
	for name, op := range map[string]func(){
		"InitSync count": func() { f.InitSync(0, over, 0, 0) },
		"InitSync reset": func() { f.InitSync(0, 1, over, 0) },
	} {
		if msg := panicMessage(op); !strings.Contains(msg, "slot 0") {
			t.Errorf("%s past the range: panic %q, want one naming slot 0", name, msg)
		}
	}
	// The top of the range is usable, and held without wrapping: a
	// counter at MaxInt32 does not fire on its first signal.
	f.InitSync(0, math.MaxInt32, math.MaxInt32, 0)
	if fired, _ := f.Dec(0); fired {
		t.Error("a slot armed at MaxInt32 fired on its first signal")
	}
}
