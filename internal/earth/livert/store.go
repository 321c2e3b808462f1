package livert

// The storage a run grows. Each node's three rings, its executor's handler
// batch, coalescer, idle-wait timer and profiler labels live in a store,
// lent to a Run from the package's one free list and given back once every
// executor and timer is done, so a runtime built per run — as the
// benchmark and the harness build them — starts on rings an earlier run
// grew, and an idle Runtime holds none.

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"earth/internal/earth"
)

// stores is the free list every Runtime's Run borrows its store from.
var stores earth.FreeList[store]

// store is the storage one Run grows: one lane per node.
type store struct{ lanes []lane }

// lane is one node's share of a store.
type lane struct {
	handlers earth.Ring[envelope] // runtime messages: highest priority
	ready    earth.Ring[item]     // ready threads
	tokens   earth.Ring[ltoken]   // stealable token pool
	// batch is the executor's private handler batch (lnode.bnext, bend),
	// allocated on first use (handlerBatch envelopes): New stays a few
	// microseconds for a machine that may never see a message.
	batch []envelope
	// coal holds the running body's coalesced operations (see coalesce.go).
	// Unused unless rt.coalOn.
	coal earth.Coalescer[envelope]
	// idle is the executor's idle-wait timer (loop), made on its first wait
	// and re-armed for every later one: a timer's Reset and Stop discard
	// any expiry not yet received, so a lane's next user never sees one of
	// an earlier run.
	idle *time.Timer
	// labels carries the executor's earth_node profiler label (loop), built
	// once for the lane: lane i serves node i in every run.
	labels context.Context
}

// lend takes a store for one Run, before any executor starts.
func (rt *Runtime) lend() {
	st := stores.Get()
	if len(st.lanes) < len(rt.nodes) {
		st.lanes = append(st.lanes, make([]lane, len(rt.nodes)-len(st.lanes))...)
	}
	rt.store = st
	for i, n := range rt.nodes {
		n.lane = &st.lanes[i]
		if n.labels == nil {
			n.labels = pprof.WithLabels(context.Background(), pprof.Labels("earth_node", strconv.Itoa(int(n.id))))
		}
	}
}

// giveBack returns the run's store to the free list at rest — rings and
// batches empty and zeroed, so no closure, frame or envelope of the run is
// reachable from it — once nothing of the run can touch a queue: every
// executor has returned and every timer is through. A hand-off moved a
// down node's queued work to its adopter and gave the down node its rings
// back empty, so each lane holds its own node's rings. What a ring still
// held is noted for Quiescent first.
func (rt *Runtime) giveBack() {
	rt.left = nil
	for _, n := range rt.nodes {
		for _, q := range [...]struct {
			name string
			len  int
		}{{"handlers", n.handlers.Len()}, {"ready", n.ready.Len()}, {"tokens", n.tokens.Len()}} {
			if q.len != 0 {
				rt.left = append(rt.left, fmt.Sprintf("node %d %s=%d", n.id, q.name, q.len))
			}
		}
		n.handlers.Reset()
		n.ready.Reset()
		n.tokens.Reset()
		clear(n.batch)
		if n.idle != nil {
			n.idle.Stop()
		}
		n.lane = nil
	}
	stores.Put(rt.store)
	rt.store = nil
}
