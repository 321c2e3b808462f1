package simrt

// simrt's ship step for the wire-path coalescer (earth.Coalescer, one per
// node). A buffered Put or Post is charged its per-byte serialisation at
// issue and a Sync nothing; the shared per-message overhead and header are
// paid here, once per batch. The coalescer lives on the node, not the
// context: contexts are pooled and reset per dispatch, while the buffer
// storage is worth keeping across bodies. Bodies are non-preemptive and
// every exit of dispatch and execHandlerBody drains it, so it is empty
// between bodies.

import (
	"earth/internal/earth"
	"earth/internal/sim"
)

// coalOp is one buffered small-message operation awaiting a batched
// flush. kind is restricted to msgSync, msgPut and msgPost.
type coalOp struct {
	kind  msgKind
	f     *earth.Frame
	slot  int
	body  earth.ThreadBody
	write func()
	bytes int
	issue sim.Time
}

// Ship implements earth.Shipper: one destination's batch as a single wire
// transfer — one AsyncSend overhead, one header, one msgBatch envelope, and
// therefore exactly one deterministic fault-injector verdict for the whole
// batch. The envelope owns ops until it fires, and a duplicate-injection
// clone may share them longer; fireBatch gives an unshared slice back to
// this node's coalescer.
func (c *ctx) Ship(dst earth.NodeID, ops []coalOp, bytes int) {
	rt := c.rt
	src := c.n.id
	c.cursor += rt.cfg.Costs.AsyncSend
	rt.sink.Event(earth.Event{Time: c.cursor, Node: src, Peer: dst,
		Kind: earth.EvBatchFlush, Bytes: bytes, Wait: sim.Time(len(ops))})
	m, arrival := rt.envelope(msgBatch, src, dst, c.cursor, bytes, bytes)
	m.batch = ops
	rt.deliver(c.cursor, arrival, m)
}
