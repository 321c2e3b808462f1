package earth

// Outbox holds a node's protocol messages as reusable records, so that a
// message is a handler and its argument words, as in EARTH's INVOKE and
// GET_SYNC, and not a closure made on the heap per Post. Next hands out a
// record that no earlier message of the run used; Reset, at the end of a
// run, puts every record back at rest and makes them available again, in
// the same order. A record's body, the method value l.run that the engines
// run, is bound once when the record is first made, so a warm outbox posts
// without allocating.
//
// A record is never reused before Reset, so a message the engines
// duplicate, reorder, retransmit or re-route to an adopter still points at
// the argument it was sent with. An outbox is not safe for concurrent use:
// an application keeps one per executing node (Ctx.Node, which is an
// adopter while the node it stands in for is down) and lets only that
// node's contexts take records from it.
type Outbox[A any] struct {
	ls []*Letter[A]
	n  int // ls[:n] are in use this run
}

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
	if o.n == len(o.ls) {
		l := new(Letter[A])
		l.body = l.run
		o.ls = append(o.ls, l)
	}
	l := o.ls[o.n]
	o.n++
	return l
}

// Post is c.Post(node, argBytes, ...) of a body that runs h with l: the
// same message, bytes and events. h should be a plain function (a method
// expression or a top-level func), which storing allocates nothing.
func (l *Letter[A]) Post(c Ctx, node NodeID, argBytes int, h func(Ctx, *Letter[A])) {
	l.h = h
	c.Post(node, argBytes, l.body)
}

// Spawn is SpawnBody(c, ...) of a body that runs h with l: one new
// one-thread frame on the executing node, whose thread is l's bound body.
// A handler that hands its work on to a thread calls it on its own record,
// which then serves that thread instead.
func (l *Letter[A]) Spawn(c Ctx, h func(Ctx, *Letter[A])) {
	l.h = h
	SpawnBody(c, l.body)
}

// Reset puts every record used since the last Reset at rest — zero
// applied to its argument, its handler dropped — and makes them available
// to Next again. zero should clear the argument but may keep the capacity
// of its slices, which later messages then fill without allocating. Call
// it once the run that sent the records has ended.
func (o *Outbox[A]) Reset(zero func(*A)) {
	for _, l := range o.ls[:o.n] {
		zero(&l.Arg)
		l.h = nil
	}
	o.n = 0
}
