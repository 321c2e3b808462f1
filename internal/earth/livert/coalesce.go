package livert

import (
	"earth/internal/earth"
	"earth/internal/sim"
)

// Same-destination coalescing on livert's push path (earth.Config.
// Coalesce). Remote Put/Sync/Post issued by one thread or handler body
// are buffered per destination on the body's ctx and shipped as one
// composite handler at flush — one enqueue, one fault-injector verdict,
// one idempotent-delivery wrapper for the whole batch, mirroring
// simrt's one-envelope-per-batch accounting. Buffers live on the
// executor's one ctx, whose list the end-of-body flush leaves empty for
// the next body; they are kept sorted by destination id, and that flush
// walks them in ascending order — the same canonical order the simulator
// uses, never map order.

// lcoalBuf accumulates one destination's pending operations: each op is
// the envelope that would have been its own handler dispatch.
type lcoalBuf struct {
	dst   *lnode
	ops   []envelope
	bytes int
}

// coalAdd buffers one remote operation of nbytes for dst and flushes
// when a configured threshold trips. The caller has already emitted the
// operation's send event.
func (c *ctx) coalAdd(dst *lnode, nbytes int, op envelope) {
	i := 0
	for i < len(c.coal) && c.coal[i].dst.id < dst.id {
		i++
	}
	if i == len(c.coal) || c.coal[i].dst.id != dst.id {
		c.coal = append(c.coal, lcoalBuf{})
		copy(c.coal[i+1:], c.coal[i:])
		c.coal[i] = lcoalBuf{dst: dst}
	}
	b := &c.coal[i]
	b.ops = append(b.ops, op)
	b.bytes += nbytes
	cc := c.rt.cfg.Coalesce
	if len(b.ops) >= cc.MaxMsgs || b.bytes >= cc.MaxBytes {
		c.flushCoalBuf(b)
	}
}

// flushCoalTo drains the buffer for dst, if any — issued before a
// non-coalescable operation (Get/Invoke/placed Token) to the same
// destination so batched traffic keeps its per-destination FIFO.
func (c *ctx) flushCoalTo(dst *lnode) {
	for i := range c.coal {
		if c.coal[i].dst == dst {
			c.flushCoalBuf(&c.coal[i])
			return
		}
	}
}

// flushCoal drains every buffer in ascending destination order — the
// end-of-body flush, called by the executor after the body returns. The
// list is truncated, keeping its storage: the next body on this executor
// starts with no buffers, as it would on a context of its own.
func (c *ctx) flushCoal() {
	for i := range c.coal {
		c.flushCoalBuf(&c.coal[i])
	}
	c.coal = c.coal[:0]
}

// flushCoalBuf ships one destination's batch as a single composite
// handler: the buffered operations apply in issue order on the
// destination's executor, under one fault verdict.
func (c *ctx) flushCoalBuf(b *lcoalBuf) {
	if len(b.ops) == 0 {
		return
	}
	ops := b.ops
	bytes := b.bytes
	b.ops = nil
	b.bytes = 0
	rt := c.rt
	if rt.tr != nil {
		rt.tr.Event(earth.Event{Time: rt.now(), Node: c.n.id, Peer: b.dst.id,
			Kind: earth.EvBatchFlush, Bytes: bytes, Wait: sim.Time(len(ops))})
	}
	rt.sendHandler(c.n, c.n.id, b.dst, bytes, &envelope{kind: envBody, fn: pack(earth.ThreadBody(func(hc earth.Ctx) {
		ex := hc.(*ctx).n
		for i := range ops {
			ex.fire(&ops[i])
		}
	}))})
}
