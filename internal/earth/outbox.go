package earth

import "slices"

// Outbox holds a node's protocol messages and tokens as reusable records,
// so that a message is a handler and its argument words, as in EARTH's
// INVOKE, TOKEN and GET_SYNC, and not a closure made on the heap per Post
// or Token. Next hands out a record that no earlier message of the run
// used; Reset, at the end of a run, puts every record back at rest and
// makes them available again. A record's body, the method value l.run that
// the engines run, is bound once when the record is first made, so a warm
// outbox posts without allocating.
//
// Records come in blocks from the outbox's Letters, a free list that the
// outboxes of one argument type can share (NewOutbox), and Reset gives the
// blocks back there. So the records a program keeps between runs are the
// most its runs ever held at the same time, wherever those runs sent from,
// and not the most each outbox once held: a sweep's concurrent runs hand
// node workspaces from one role or machine size to another, and outboxes
// that kept their own records would each grow to the largest count any of
// them served.
//
// A record is never reused before Reset, so a message the engines
// duplicate, reorder, retransmit or re-route to an adopter still points at
// the argument it was sent with. An outbox is not safe for concurrent use:
// an application keeps one per executing node (Ctx.Node, which is an
// adopter while the node it stands in for is down) and lets only that
// node's contexts take records from it.
type Outbox[A any] struct {
	src    *Letters[A]
	blocks []*letterBlock[A] // taken from src this run
	n      int               // records of blocks in use this run
}

// letterBlockLen is the number of records an outbox takes from its Letters
// at a time: a run's outboxes hold at most this many records each beyond
// what they use.
const letterBlockLen = 16

type letterBlock[A any] [letterBlockLen]Letter[A]

// Letters is the free list of record blocks that outboxes share: an
// application keeps one per argument type.
type Letters[A any] struct{ FreeList[letterBlock[A]] }

// NewOutbox returns an empty outbox that takes its records from src.
func NewOutbox[A any](src *Letters[A]) Outbox[A] { return Outbox[A]{src: src} }

// Letter is one record of an Outbox: the argument Arg, the handler that
// reads it and the thread body the engines run, which calls the handler
// with the record.
type Letter[A any] struct {
	Arg  A
	h    func(Ctx, *Letter[A])
	body ThreadBody
}

func (l *Letter[A]) run(c Ctx) { l.h(c, l) }

// Next returns a record no message has used since the last Reset, its
// argument at rest.
func (o *Outbox[A]) Next() *Letter[A] {
	i := o.n % letterBlockLen
	if i == 0 {
		b := o.src.Get()
		if b[0].body == nil {
			for k := range b {
				b[k].body = b[k].run
			}
		}
		o.blocks = append(o.blocks, b)
	}
	o.n++
	return &o.blocks[len(o.blocks)-1][i]
}

// Post is c.Post(node, argBytes, ...) of a body that runs h with l: the
// same message, bytes and events. h should be a plain function (a method
// expression or a top-level func), which storing allocates nothing.
func (l *Letter[A]) Post(c Ctx, node NodeID, argBytes int, h func(Ctx, *Letter[A])) {
	l.h = h
	c.Post(node, argBytes, l.body)
}

// Token is c.Token(argBytes, ...) of a body that runs h with l: the same
// token, bytes and events. The token may be stolen, so h runs on whichever
// node takes it, and records it needs there come from that node's outbox.
func (l *Letter[A]) Token(c Ctx, argBytes int, h func(Ctx, *Letter[A])) {
	l.h = h
	c.Token(argBytes, l.body)
}

// Thread makes h l's handler and returns l's bound body, to install as a
// thread of a frame the caller builds (Frame.SetThread).
func (l *Letter[A]) Thread(h func(Ctx, *Letter[A])) ThreadBody {
	l.h = h
	return l.body
}

// Spawn is SpawnBody(c, ...) of a body that runs h with l: one new
// one-thread frame on the executing node, whose thread is l's bound body.
// A handler that hands its work on to a thread calls it on its own record,
// which then serves that thread instead.
func (l *Letter[A]) Spawn(c Ctx, h func(Ctx, *Letter[A])) {
	SpawnBody(c, l.Thread(h))
}

// Reset puts every record used since the last Reset at rest — zero
// applied to its argument, its handler dropped — and gives their blocks
// back to the outbox's Letters, the first taken last, so that an outbox
// alone on its list takes the same records in the same order next run.
// zero should clear the argument but may keep the capacity of its slices,
// which later messages then fill without allocating. Call it once the run
// that sent the records has ended.
func (o *Outbox[A]) Reset(zero func(*A)) {
	for k, b := range o.blocks {
		for i := range b[:min(letterBlockLen, o.n-k*letterBlockLen)] {
			zero(&b[i].Arg)
			b[i].h = nil
		}
	}
	for _, b := range slices.Backward(o.blocks) {
		o.src.Put(b)
	}
	clear(o.blocks)
	o.blocks, o.n = o.blocks[:0], 0
}
