// Package ok holds the no-fire cases: legitimate split-phase patterns
// framelint must stay silent on.
package ok

import "earthvet.test/api"

// FanIn is the canonical clean shape: a counted fan-in slot signalled
// from a loop (uncountable, so no arithmetic claims) chaining into a
// one-shot continuation signalled from the first thread's body.
func FanIn(c api.Ctx) {
	f := api.NewFrame(0, 2, 2)
	f.SetThread(0, func(cc api.Ctx) { cc.Sync(f, 1) })
	f.SetThread(1, func(api.Ctx) {})
	f.InitSync(0, 4, 0, 0)
	f.InitSync(1, 1, 0, 1)
	for i := 0; i < 4; i++ {
		c.Sync(f, 0)
	}
}

// Recurring slots (reset != 0) absorb any number of signals; the
// one-shot arithmetic must not apply.
func Recurring(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 2, 2, 0)
	c.Sync(f, 0)
	c.Sync(f, 0)
	c.Sync(f, 0)
	c.Sync(f, 0)
}

// Conditional signal sites count toward the possible total (so no
// under-signal) but not the certain one (so no over-signal).
func Conditional(c api.Ctx, pick bool) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0)
	if pick {
		c.Sync(f, 0)
	} else {
		api.Rsync(c, f, 0)
	}
}

// Words: two word Gets and a Get fill a three-signal slot exactly.
func Words(c api.Ctx, w api.WordGetter, src, dst *uint64) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 3, 0, 0)
	w.GetWord(1, src, dst, f, 0)
	w.GetWord(2, src, dst, f, 0)
	c.Get(1, 8, func() func() { return func() {} }, f, 0)
}

// signalOnce contributes exactly one signal through the summary.
func signalOnce(c api.Ctx, f *api.Frame) { c.Sync(f, 0) }

// ViaHelper: interprocedural counting that adds up exactly.
func ViaHelper(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 2, 0, 0)
	c.Sync(f, 0)
	signalOnce(c, f)
}

// A dynamic slot index disables the counting checks for the frame
// rather than guessing.
func Dynamic(c api.Ctx, which int) {
	f := api.NewFrame(0, 1, 2)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 1, 0, 0)
	f.InitSync(1, 1, 0, 0)
	c.Sync(f, which)
	c.Sync(f, 0)
	c.Sync(f, 1)
}

type holder struct{ frame *api.Frame }

// Escapes: a frame stored into a structure leaves the analysed flow;
// framelint must skip it entirely (the slot-5 signal would be a range
// violation if the frame were still tracked).
func Escapes(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	h := holder{frame: f}
	_ = h
	c.Sync(f, 5)
}

// EscapesUnderCounted: only the over-signal half of (b) applies to a
// frame that escapes — its holder may deliver the second signal.
func EscapesUnderCounted(c api.Ctx) holder {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	f.InitSync(0, 2, 0, 0)
	c.Sync(f, 0)
	return holder{frame: f}
}

// Arm initialises a slot of a parameter frame its callers signal: the
// signals are out of view here, so no under-signal claim is made.
func Arm(f *api.Frame) { f.InitSync(0, 2, 0, 0) }

// DirectDec: the engines' slot decrement counts as a signal, so a slot
// armed for two and decremented twice in each iteration's own frame is
// neither over- nor under-signalled.
func DirectDec(n int) {
	for i := 0; i < n; i++ {
		f := api.NewFrame(0, 1, 1)
		f.SetThread(0, func(api.Ctx) {})
		f.InitSync(0, 2, 0, 0)
		f.Dec(0)
		f.Dec(0)
	}
}

// HeaderFrame: a frame made in an if header is not inside either branch,
// so each branch's operations on it stay conditional.
func HeaderFrame(c api.Ctx, pick bool) {
	if f := api.NewFrame(0, 1, 1); pick {
		f.SetThread(0, func(api.Ctx) {})
		f.InitSync(0, 1, 0, 0)
		c.Sync(f, 0)
	} else {
		c.Sync(f, 0)
	}
}

// Allowed: a deliberate over-signal silenced with a reasoned directive.
func Allowed(c api.Ctx) {
	f := api.NewFrame(0, 1, 1)
	f.SetThread(0, func(api.Ctx) {})
	//framelint:allow duplicate signal exercises the sanitizer's overflow path in a test harness
	f.InitSync(0, 1, 0, 0)
	c.Sync(f, 0)
	c.Sync(f, 0)
}

// VectorsPairUp: matching literal lengths and non-literal vectors are
// both fine.
func VectorsPairUp(c api.Ctx, f *api.Frame, w func(), sizes []int) {
	api.BlkMovBytesV(c, 1, []int{8, 8}, []func(){w, w}, f, 0)
	api.BlkMovBytesV(c, 1, sizes, []func(){}, f, 1)
}

// Threaded-function completion: the thread body signals a slot of a
// DIFFERENT frame (the caller's), the RSYNC idiom — not its own gate.
func Completion(c api.Ctx, parent *api.Frame) {
	f := api.NewFrame(0, 1, 1)
	f.InitSync(0, 1, 0, 0)
	f.SetThread(0, func(cc api.Ctx) {
		api.Rsync(cc, parent, 0)
	})
	c.Sync(f, 0)
}

// CrossFrame is the vadd shape from the quickstart example: per-element
// frames whose thread bodies each signal the collector frame's fan-in
// slot, and the collector's thread RSYNCs the caller's one-shot counter.
// Both slots look like "thread 0 signals slot 0 / reset 0" — but each
// body belongs to a different frame than the one it signals, so neither
// the terminal-signal check nor the one-shot arithmetic may bind them.
func CrossFrame(c api.Ctx, done *api.Frame) {
	f := api.NewFrame(0, 1, 1)
	f.InitSync(0, 2, 0, 0)
	f.SetThread(0, func(cc api.Ctx) {
		api.Rsync(cc, done, 0)
	})
	for j := 0; j < 2; j++ {
		ef := api.NewFrame(0, 1, 1)
		ef.InitSync(0, 1, 0, 0)
		ef.SetThread(0, func(cc api.Ctx) {
			cc.Sync(f, 0)
		})
		c.Sync(ef, 0)
	}
}

// MatchedArity: a one-shot slot with exactly as many visible signals as
// its count, a Sync and a Get's completion leg.
func MatchedArity(c api.Ctx) {
	f := api.NewFrame(0, 2, 1)
	f.SetThread(1, func(api.Ctx) {})
	f.InitSync(0, 2, 0, 1)
	c.Sync(f, 0)
	c.Get(1, 8, func() func() { return func() {} }, f, 0)
}

// Defaults: zero values select documented defaults, and negative seeds
// are legitimate stream selectors.
func Defaults() (api.RetryPolicy, api.Config) {
	return api.RetryPolicy{Lease: 0, Jitter: 0.25},
		api.Config{Nodes: 4, Seed: -9}
}
