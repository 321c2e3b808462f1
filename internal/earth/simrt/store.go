package simrt

// The storage a run grows. A Runtime keeps its configuration, nodes and
// fault schedule for life, but everything a Run fills and empties — each
// node's ready queue, token pool, busy spans and coalescer, the envelope
// free list, the outbox, the steal-miss notes and victim list, the event
// heap and a trace chunk (trace.go) — lives in a store, lent to the Run
// from the package's one free list and given back before Run returns. So the
// harness's hundreds of runtimes per sweep, and the benchmark's one per
// storm, start on storage an earlier run grew, as a machine that sets up
// its queues and message buffers once; an idle Runtime holds none of it.
//
// Nothing simulated depends on what a store held before: a ring's order,
// the heap's order and a zeroed envelope do not depend on capacity or on
// which run grew them.

import (
	"earth/internal/earth"
	"earth/internal/sim"
)

// stores is the free list every Runtime's Run borrows its store from.
var stores earth.FreeList[store]

// store is the storage one Run grows.
type store struct {
	lanes []lane
	// eng is the machine's one event queue.
	eng sim.Engine
	// outbox holds the cross-node messages issued in the current window and
	// misses the steal requests that found a dry victim in it; both drain
	// at the barrier.
	outbox []outboxEntry
	misses []missNote
	// msgFree is the envelope free list.
	msgFree []*msg
	// victimScratch is matchSteals' victim list, reused across barriers.
	victimScratch []*node
	// events buffers the run's trace events in emission order; flushTrace
	// hands them over in canonical order when the run completes. It keeps
	// one chunk between runs.
	events eventBuf
}

// lane is one node's share of a store.
type lane struct {
	ready earth.Ring[item] // FIFO ready queue of threads
	// tokens is the local token pool: popped from the back for local
	// execution (newest first, depth-first on task trees) and from the
	// front for steals (oldest first, the largest subtree).
	tokens earth.Ring[token]
	// spans records busy intervals for utilisation sampling; only
	// maintained while a tracer with UtilSamplePeriod is installed.
	spans []span
	// coal is the node's wire-path coalescer (see coalesce.go), used only
	// when Config.Coalesce is enabled. It is empty whenever no body is
	// executing on the node.
	coal earth.Coalescer[coalOp]
}

// lend takes a store for one Run and points the runtime, its nodes, their
// sinks and the store's envelopes at it.
func (rt *Runtime) lend() {
	st := stores.Get()
	if len(st.lanes) < len(rt.nodes) {
		st.lanes = append(st.lanes, make([]lane, len(rt.nodes)-len(st.lanes))...)
	}
	rt.store = st
	if rt.cfg.Tracer != nil {
		rt.sink = earth.SinkOf(&st.events)
	}
	for i, n := range rt.nodes {
		n.lane = &st.lanes[i]
		n.acct.Sink = rt.sink
	}
	for _, m := range st.msgFree {
		m.rt = rt
	}
}

// giveBack returns the run's store to the free list at rest: queues empty
// and zeroed, no envelope bound to the runtime or holding the program's
// closures, no frame, node or tracer reachable from it, and the runtime
// and its nodes holding none of it.
func (rt *Runtime) giveBack() {
	st := rt.store
	for _, n := range rt.nodes {
		n.ready.Reset()
		n.tokens.Reset()
		n.spans = n.spans[:0]
		n.lane = nil
		n.acct.Sink = earth.Sink{}
	}
	st.eng.Reset()
	clear(st.outbox[:cap(st.outbox)])
	st.outbox, st.misses = st.outbox[:0], st.misses[:0]
	clear(st.victimScratch[:cap(st.victimScratch)])
	st.victimScratch = st.victimScratch[:0]
	clear(st.msgFree[len(st.msgFree):cap(st.msgFree)])
	for _, m := range st.msgFree {
		m.rt = nil
	}
	st.events.reset()
	rt.store, rt.sink = nil, earth.Sink{}
	stores.Put(st)
}
