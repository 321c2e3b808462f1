// Package misuse holds synclint fire cases against the miniature API.
package misuse

import "earthvet.test/api"

func badInitSync(c api.Ctx) {
	f := api.NewFrame(0, 2, 3)
	f.InitSync(0, 0, 0, 1)  // want `InitSync with count 0`
	f.InitSync(1, 2, -1, 1) // want `InitSync with negative reset -1`
	f.InitSync(2, 1, 0, -2) // want `InitSync names negative thread -2`
}

func badNewFrame() {
	_ = api.NewFrame(0, -1, 2) // want `NewFrame with negative thread count -1`
	_ = api.NewFrame(0, 2, -3) // want `NewFrame with negative slot count -3`
}

// overSignalled declares a one-shot slot absorbing one signal, then
// signals it twice: the second Sync panics at run time.
func overSignalled(c api.Ctx) {
	f := api.NewFrame(0, 2, 1)
	f.InitSync(0, 1, 0, 1) // want `one-shot slot 0 takes 1 signal\(s\) but 2 signal sites are visible`
	c.Sync(f, 0)
	c.Sync(f, 0)
}

// overSignalledSplitPhase counts Get/Put completion legs as signals too.
func overSignalledSplitPhase(c api.Ctx) {
	f := api.NewFrame(0, 2, 1)
	f.InitSync(0, 2, 0, 1) // want `one-shot slot 0 takes 2 signal\(s\) but 3 signal sites are visible`
	c.Get(1, 8, func() func() { return func() {} }, f, 0)
	c.Put(1, 8, func() {}, f, 0)
	c.Sync(f, 0)
}

func badPolicies() (api.RetryPolicy, api.Config) {
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

// engine emits through a cached tracer field without the nil guard.
type engine struct {
	tr api.Tracer
}

func (e *engine) unguarded(now int64) {
	e.tr.Event(api.Event{Time: now, Kind: api.EvAlsoUsed}) // want `e.tr.Event emission without a nil-tracer guard`
}

func (e *engine) wrongGuard(other api.Tracer, now int64) {
	if other != nil {
		e.tr.Event(api.Event{Time: now, Kind: api.EvAlsoUsed}) // want `e.tr.Event emission without a nil-tracer guard`
	}
}

// unguardedFlush mirrors a coalescer flush that emits the batch event
// without the nil-tracer guard: every untraced batched run would crash.
func (e *engine) unguardedFlush(now int64, dst, bytes int) {
	e.tr.Event(api.Event{Time: now, Peer: dst, Bytes: bytes, Kind: api.EvBatchFlush}) // want `e.tr.Event emission without a nil-tracer guard`
}

// unguardedStaleReject mirrors rejecting a stale-epoch message without
// the nil-tracer guard: every untraced partitioned run would crash at
// the first fenced delivery.
func (e *engine) unguardedStaleReject(now int64, src int) {
	e.tr.Event(api.Event{Time: now, Peer: src, Kind: api.EvFenced}) // want `e.tr.Event emission without a nil-tracer guard`
}
