// Package ok holds synclint no-fire cases: correct API use must stay
// silent.
package ok

import "earthvet.test/api"

// matchedArity: a one-shot slot with exactly as many visible signals as
// its count.
func matchedArity(c api.Ctx) {
	f := api.NewFrame(0, 2, 1)
	f.InitSync(0, 2, 0, 1)
	c.Sync(f, 0)
	c.Get(1, 8, func() func() { return func() {} }, f, 0)
}

// resettingSlot: a reset count makes repeated signalling legal.
func resettingSlot(c api.Ctx) {
	f := api.NewFrame(0, 2, 1)
	f.InitSync(0, 1, 1, 1)
	c.Sync(f, 0)
	c.Sync(f, 0)
	c.Sync(f, 0)
}

// loopSignals: signal sites inside a loop are uncountable, so the check
// stays quiet even though the count is constant.
func loopSignals(c api.Ctx, n int) {
	f := api.NewFrame(0, 2, 1)
	f.InitSync(0, 4, 0, 1)
	for i := 0; i < n; i++ {
		c.Sync(f, 0)
	}
}

// grownSlot: Frame.Add makes the arity dynamic; the declaration count is
// only a starting value.
func grownSlot(c api.Ctx, extra int) {
	f := api.NewFrame(0, 2, 1)
	f.InitSync(0, 1, 0, 1)
	f.Add(0, extra)
	c.Sync(f, 0)
	c.Sync(f, 0)
}

// defaults: zero values select documented defaults, and negative seeds
// are legitimate stream selectors.
func defaults() (api.RetryPolicy, api.Config) {
	return api.RetryPolicy{Lease: 0, Jitter: 0.25},
		api.Config{Nodes: 4, Seed: -9}
}

// engine emits through its cached tracer field behind the canonical nil
// guard, in both plain and compound conditions.
type engine struct {
	tr    api.Tracer
	extra bool
}

func (e *engine) guarded(now int64) {
	if e.tr != nil {
		e.tr.Event(api.Event{Time: now, Kind: api.EvUsed})
	}
	if e.extra && e.tr != nil {
		e.tr.Event(api.Event{Time: now, Kind: api.EvAlsoUsed})
	}
}

// multi fans out over locally filtered tracers: ident receivers are
// exempt from the guard requirement.
type multi []api.Tracer

func (m multi) Event(e api.Event) {
	for _, t := range m {
		t.Event(e)
	}
}

// deliver mirrors the engines' remote-token arrival emission: guarded,
// with the placement latency and the sender attached.
func (e *engine) deliver(now, issue int64, src int) {
	if e.tr != nil {
		e.tr.Event(api.Event{Time: now, Peer: src, Kind: api.EvTokenDeliver, Dur: now - issue})
	}
}

// flushBatch mirrors the coalescer's flush path: the batch-flush event is
// emitted behind the canonical nil guard, with the destination and the
// summed payload attached.
func (e *engine) flushBatch(now int64, dst, bytes, msgs int) {
	if e.tr != nil {
		e.tr.Event(api.Event{Time: now, Peer: dst, Bytes: bytes,
			Kind: api.EvBatchFlush, Dur: int64(msgs)})
	}
}

// fencePeer mirrors the epoch-fencing adoption emission: a survivor
// records the wrong verdict against its silent peer behind the nil
// guard, with the detection lease attached as the duration.
func (e *engine) fencePeer(now, lease int64, peer int) {
	if e.tr != nil {
		e.tr.Event(api.Event{Time: now, Peer: peer,
			Kind: api.EvPartitionFence, Dur: lease})
	}
}
