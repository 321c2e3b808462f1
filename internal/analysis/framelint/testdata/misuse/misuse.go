// Package misuse holds one fire case per framelint check.
package misuse

import "earthvet.test/api"

// Check (a): a signal site targeting a slot no InitSync initialises.
func UninitedSlot(c api.Ctx) {
	f := api.NewFrame(0, 1, 2)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0)
	c.Sync(f, 0)
	c.Sync(f, 1) // want `signal targets slot 1 of frame f, but no InitSync ever initialises it`
}

// Check (a): a slot enabling a thread no SetThread installs.
func UnsetThread(c api.Ctx) {
	f := api.NewFrame(0, 2, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 1) // want `slot 0 enables thread 1 of frame f, but no SetThread ever installs it`
	c.Sync(f, 0)
	c.Spawn(f, 0)
}

// Check (a): spawning a thread no SetThread installs.
func SpawnUnset(c api.Ctx) {
	f := api.NewFrame(0, 2, 0)
	f.SetThread(0, func(api.Ctx) {})
	c.Spawn(f, 0)
	c.Spawn(f, 1) // want `Spawn of thread 1 of frame f, but no SetThread ever installs it`
}

// Check (b): more unconditional signal sites than a one-shot absorbs.
func OverSignal(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0) // want `one-shot slot 0 of frame f takes 1 signal\(s\) but 2 unconditional signal sites target it`
	c.Sync(f, 0)
	c.Sync(f, 0)
}

// Check (b): the slot promises more signals than any site can deliver —
// the enabled thread is silently lost.
func UnderSignal(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 3, 0, 0) // want `slot 0 of frame f promises 3 signal\(s\) but only 2 signal site\(s\) can ever target it`
	c.Sync(f, 0)
	c.Sync(f, 0)
}

// Check (b) on the word Get: a direct GetWord signals its slot like Get.
func OverSignalWord(w api.WordGetter, src, dst *uint64) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0) // want `one-shot slot 0 of frame f takes 1 signal\(s\) but 2 unconditional signal sites target it`
	w.GetWord(1, src, dst, f, 0)
	w.GetWord(1, src, dst, f, 0)
}

// Check (b) on the word Get: the slot waits for a second word no site
// fetches.
func UnderSignalWord(w api.WordGetter, src, dst *uint64) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 2, 0, 0) // want `slot 0 of frame f promises 2 signal\(s\) but only 1 signal site\(s\) can ever target it`
	w.GetWord(1, src, dst, f, 0)
}

// contribute signals (f, 0) once; framelint folds this into callers.
func contribute(c api.Ctx, f *api.Frame) {
	c.Sync(f, 0)
}

// Check (b), interprocedural: the second signal arrives through a
// same-package helper and still counts.
func OverViaHelper(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0) // want `one-shot slot 0 of frame f takes 1 signal\(s\) but 2 unconditional signal sites target it`
	c.Sync(f, 0)
	contribute(c, f)
}

// Check (c): constant indices out of the frame's NewFrame dimensions.
func OutOfRange(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.SetThread(2, func(api.Ctx) {}) // want `SetThread id 2 out of range for frame f with 1 thread\(s\)`
	f.InitSync(1, 1, 0, 0)           // want `InitSync on slot 1 of frame f, which has only 1 slot\(s\)`
	f.InitSync(0, 1, 0, 0)
	c.Sync(f, 0)
}

// Check (c): a signal to a slot beyond the frame's shape.
func SignalOutOfRange(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0)
	c.Sync(f, 0)
	c.Sync(f, 3) // want `signal targets slot 3 of frame f, which has only 1 slot\(s\)`
}

// Check (d): a vectored block move whose literal vectors do not pair up.
func VectorShapes(c api.Ctx, f *api.Frame) {
	api.BlkMovBytesV(c, 1, []int{8, 8}, []func(){}, f, 2) // want `BlkMovBytesV with 2 sizes but 0 writes`
}

// Check (e): a thread body signalling its own gating one-shot slot —
// the slot is exhausted by the time the body runs.
func TerminalSignal(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.InitSync(0, 1, 0, 0)
	f.SetThread(0, func(cc api.Ctx) {
		cc.Sync(f, 0) // want `thread 0 signals slot 0 of frame f, but that one-shot slot is what enables thread 0`
	})
	c.Sync(f, 0)
}

// installBad installs a thread body on its parameter frame that signals
// the frame's own slot 0; whether that is terminal depends on the
// caller's InitSync, so the verdict lands there.
func installBad(c api.Ctx, f *api.Frame) {
	f.SetThread(0, func(cc api.Ctx) { cc.Sync(f, 0) })
}

// Check (e), interprocedural: the self-signal is installed by a helper,
// and the caller's one-shot init makes it terminal.
func TerminalViaHelper(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.InitSync(0, 1, 0, 0)
	installBad(c, f) // want `thread 0 signals slot 0 of frame f, but that one-shot slot is what enables thread 0`
	c.Sync(f, 0)
}

// Check (b) on Get/Put: their completion legs count as signals too.
func OverSignalSplitPhase(c api.Ctx) {
	f := api.NewFrame(0, 2, 1)
	f.SetThread(1, func(api.Ctx) {})
	f.InitSync(0, 2, 0, 1) // want `one-shot slot 0 of frame f takes 2 signal\(s\) but 3 unconditional signal sites target it`
	c.Get(1, 8, func() func() { return func() {} }, f, 0)
	c.Put(1, 8, func() {}, f, 0)
	c.Sync(f, 0)
}

// Check (b) per frame instance: a frame made inside a closure of unknown
// multiplicity (here a returned program body) and signalled in the same
// call is counted per instance, so its over-signal shows.
func OverSignalPerInstance() api.ThreadBody {
	return func(c api.Ctx) {
		f := api.NewFrame(0, 1, 1)
		f.SetThread(0, func(api.Ctx) {})
		f.InitSync(0, 1, 0, 0) // want `one-shot slot 0 of frame f takes 1 signal\(s\) but 2 unconditional signal sites target it`
		c.Sync(f, 0)
		c.Sync(f, 0)
	}
}

// Check (b) per loop iteration: each iteration makes its own frame.
func OverSignalPerIteration(c api.Ctx, n int) {
	for i := 0; i < n; i++ {
		f := api.NewFrame(0, 1, 1)
		f.SetThread(0, func(api.Ctx) {})
		f.InitSync(0, 1, 0, 0) // want `one-shot slot 0 of frame f takes 1 signal\(s\) but 2 unconditional signal sites target it`
		c.Sync(f, 0)
		c.Sync(f, 0)
	}
}

type holder struct{ frame *api.Frame }

// Check (b) on a frame that escapes into a structure: whatever the
// holder does later can only add signals, so the two visible here
// already overflow the one-shot slot.
func OverSignalEscaped(c api.Ctx) *holder {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0) // want `one-shot slot 0 of frame f takes 1 signal\(s\) but 2 unconditional signal sites target it`
	c.Sync(f, 0)
	c.Sync(f, 0)
	return &holder{frame: f}
}

// Check (b) on a parameter frame of an exported function nothing in the
// package calls: the over-signal is visible without any caller.
func OverSignalParam(c api.Ctx, f *api.Frame) {
	f.InitSync(0, 1, 0, 0) // want `one-shot slot 0 of frame f takes 1 signal\(s\) but 2 unconditional signal sites target it`
	c.Sync(f, 0)
	c.Put(1, 8, func() {}, f, 0)
}

// Constant InitSync arguments the runtime rejects. The frame is a
// parameter, so only these per-call checks apply.
func BadInitSync(f *api.Frame) {
	f.InitSync(0, 0, 0, 1)  // want `InitSync with count 0`
	f.InitSync(1, 2, -1, 1) // want `InitSync with negative reset -1`
	f.InitSync(2, 1, 0, -2) // want `InitSync names negative thread -2`
}

// Constant NewFrame dimensions the runtime rejects.
func BadNewFrame() {
	_ = api.NewFrame(0, -1, 2) // want `NewFrame with negative thread count -1`
	_ = api.NewFrame(0, 2, -3) // want `NewFrame with negative slot count -3`
}

func BadPolicies() (api.RetryPolicy, api.Config) {
	p := api.RetryPolicy{
		Lease:  -5,   // want `RetryPolicy.Lease given negative constant -5`
		Jitter: -0.5, // want `RetryPolicy.Jitter given negative constant`
	}
	c := api.Config{
		Nodes:     -4,   // want `Config.Nodes given negative constant -4`
		JitterPct: -2.5, // want `Config.JitterPct given negative constant`
	}
	return p, c
}
