package livert

import (
	"earth/internal/earth"
	"earth/internal/sim"
)

// livert's ship step for the wire-path coalescer (earth.Coalescer, one in
// each node's lane, drained by exec after every body). Each buffered
// operation is the envelope that would have been its own handler dispatch.

// Ship implements earth.Shipper: one destination's batch as a single
// composite handler — one enqueue, one fault-injector verdict, one
// idempotent-delivery wrapper for the whole batch, mirroring simrt's one
// envelope per batch. The buffered operations apply in issue order on the
// destination's executor.
func (c *ctx) Ship(dst earth.NodeID, ops []envelope, bytes int) {
	rt := c.rt
	rt.sink.Event(earth.Event{Time: rt.stamp(), Node: c.n.id, Peer: dst,
		Kind: earth.EvBatchFlush, Bytes: bytes, Wait: sim.Time(len(ops))})
	rt.sendHandler(c.n, c.n.id, rt.nodes[dst], bytes, &envelope{kind: envBody, fn: pack(earth.ThreadBody(func(hc earth.Ctx) {
		ex := hc.(*ctx).n
		for i := range ops {
			ex.fire(&ops[i])
		}
	}))})
}
