package simrt

// Same-destination message coalescing on the wire path (earth.Config.
// Coalesce). While a thread or handler body executes, its remote
// Put/Sync/Post operations are not shipped individually: each is
// appended to a per-destination buffer and charged only its per-byte
// serialisation at issue. A buffer is flushed — one AsyncSend overhead,
// one wire header, one fault-injector verdict, one EvBatchFlush event —
// when the body ends (the engine-step boundary), when a configured
// byte/count threshold trips, or when a non-coalescable operation
// (Get/Invoke/placed Token) targets the same destination and must not
// overtake the buffered traffic.
//
// Buffers live on the node, not the context: contexts are pooled and
// reset per dispatch, while the buffer backing arrays are worth keeping
// across bodies. Bodies are non-preemptive, so the buffers are provably
// empty between bodies (every exit path of dispatch and execHandlerBody
// flushes). The buffer list is kept sorted by destination node id and
// the end-of-body flush walks it in that order — canonical, never map
// order — which is what keeps coalesced runs byte-reproducible.

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

// coalBuf accumulates one destination's pending operations.
type coalBuf struct {
	dst   earth.NodeID
	ops   []coalOp
	bytes int
}

// coalescer is a node's buffer set, sorted by destination id.
type coalescer struct {
	bufs []coalBuf
}

// buf returns the buffer for dst, inserting it at its sorted position on
// first use. Destination counts per body are tiny, so the linear scan
// beats a map — and a map's iteration order could never be allowed to
// reach the flush path anyway.
func (co *coalescer) buf(dst earth.NodeID) *coalBuf {
	i := 0
	for i < len(co.bufs) && co.bufs[i].dst < dst {
		i++
	}
	if i < len(co.bufs) && co.bufs[i].dst == dst {
		return &co.bufs[i]
	}
	co.bufs = append(co.bufs, coalBuf{})
	copy(co.bufs[i+1:], co.bufs[i:])
	co.bufs[i] = coalBuf{dst: dst}
	return &co.bufs[i]
}

// reset drops all buffers (between runs).
func (co *coalescer) reset() {
	co.bufs = co.bufs[:0]
}

// coalAdd buffers op for dst and flushes the buffer if a threshold
// trips. The caller has already charged the per-operation serialisation
// to the cursor and emitted the operation's send event.
func (c *ctx) coalAdd(dst earth.NodeID, op coalOp) {
	n := c.n
	if n.coal == nil {
		n.coal = &coalescer{}
	}
	b := n.coal.buf(dst)
	b.ops = append(b.ops, op)
	b.bytes += op.bytes
	cc := c.rt.cfg.Coalesce
	if len(b.ops) >= cc.MaxMsgs || b.bytes >= cc.MaxBytes {
		c.flushCoalBuf(b)
	}
}

// flushCoalTo flushes the pending buffer for dst, if any. Issued before
// any non-coalescable wire operation to dst, so batched traffic is never
// overtaken on its own destination lane.
func (c *ctx) flushCoalTo(dst earth.NodeID) {
	co := c.n.coal
	if co == nil {
		return
	}
	for i := range co.bufs {
		if co.bufs[i].dst == dst {
			c.flushCoalBuf(&co.bufs[i])
			return
		}
	}
}

// flushCoalAll drains every pending buffer in ascending destination
// order — the end-of-body step flush.
func (c *ctx) flushCoalAll() {
	co := c.n.coal
	if co == nil {
		return
	}
	for i := range co.bufs {
		c.flushCoalBuf(&co.bufs[i])
	}
}

// flushCoalBuf ships one destination's buffered operations as a single
// batched wire transfer: one send overhead, one header, one envelope —
// and therefore exactly one deterministic fault-injector verdict for the
// whole batch.
func (c *ctx) flushCoalBuf(b *coalBuf) {
	if len(b.ops) == 0 {
		return
	}
	ops := b.ops
	bytes := b.bytes
	// The envelope owns the ops slice until it fires (and a duplicate-
	// injection clone may share it even longer); start a fresh one.
	b.ops = nil
	b.bytes = 0
	rt := c.rt
	src, dst := c.n.id, b.dst
	c.cursor += rt.cfg.Costs.AsyncSend
	if rt.tr != nil {
		rt.events.Event(earth.Event{Time: c.cursor, Node: src, Peer: dst,
			Kind: earth.EvBatchFlush, Bytes: bytes, Wait: sim.Time(len(ops))})
	}
	m, arrival := rt.envelope(msgBatch, src, dst, c.cursor, bytes, bytes)
	m.batch = ops
	rt.deliver(c.cursor, arrival, m)
}
