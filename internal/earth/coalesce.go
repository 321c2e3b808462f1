package earth

// Coalescer is the same-destination batching policy of the wire path
// (Config.Coalesce), one for both engines. While a thread or handler body
// runs, its remote Put/Sync/Post operations are not shipped one by one:
// each is added to its destination's buffer, and a buffer goes on the wire
// as one batch — one per-message overhead, one header, one fault-injector
// verdict — when
//   - it holds coalMaxMsgs operations or coalMaxBytes payload bytes (Add
//     trips it);
//   - a non-coalescable operation (Get, Invoke, placed Token) is about to
//     go to the same destination and must not overtake the buffered
//     traffic (FlushTo);
//   - the body ends (Drain).
//
// The buffer list is kept sorted by destination id and Drain walks it in
// that order — canonical, never first-use or map order — so the flush
// sequence is a pure function of the program and coalesced simrt runs stay
// byte-reproducible. What a batch is on the wire is the engine's ship step,
// its Shipper. The zero value is an empty coalescer; Drain leaves it empty
// again, keeping the list's storage for the next body. Not safe for
// concurrent use: each belongs to one execution context.
type Coalescer[Op any] struct {
	bufs []coalBuf[Op]
	// free holds the cleared operation slices given back through Recycle;
	// the next batches start in them instead of growing fresh ones.
	free [][]Op
}

// Shipper is an engine's ship step: it puts one destination's batch of
// operations, carrying bytes of payload in all, on the wire. ops is the
// shipper's until it gives the slice back through Recycle, if ever: the
// coalescer never appends to a slice it handed over and has not got back.
type Shipper[Op any] interface {
	Ship(dst NodeID, ops []Op, bytes int)
}

// The trip thresholds: a destination's buffer ships once it holds this
// many payload bytes or this many operations.
const (
	coalMaxBytes = 4096
	coalMaxMsgs  = 16
)

// coalBuf accumulates one destination's pending operations.
type coalBuf[Op any] struct {
	dst   NodeID
	ops   []Op
	bytes int
}

// Add buffers op, carrying nbytes of payload, for dst and ships the buffer
// through s when it trips. Destination counts per body are tiny, so the
// linear scan for dst's sorted position beats a map.
func (co *Coalescer[Op]) Add(s Shipper[Op], dst NodeID, op Op, nbytes int) {
	i := 0
	for i < len(co.bufs) && co.bufs[i].dst < dst {
		i++
	}
	if i == len(co.bufs) || co.bufs[i].dst != dst {
		co.bufs = append(co.bufs, coalBuf[Op]{})
		copy(co.bufs[i+1:], co.bufs[i:])
		co.bufs[i] = coalBuf[Op]{dst: dst}
	}
	b := &co.bufs[i]
	if b.ops == nil {
		if k := len(co.free); k > 0 {
			b.ops, co.free[k-1], co.free = co.free[k-1], nil, co.free[:k-1]
		}
	}
	b.ops = append(b.ops, op)
	b.bytes += nbytes
	if len(b.ops) >= coalMaxMsgs || b.bytes >= coalMaxBytes {
		b.ship(s)
	}
}

// FlushTo ships dst's pending batch through s, if it has one.
func (co *Coalescer[Op]) FlushTo(s Shipper[Op], dst NodeID) {
	for i := range co.bufs {
		if co.bufs[i].dst == dst {
			co.bufs[i].ship(s)
			return
		}
	}
}

// Drain ships every pending batch through s in ascending destination
// order — the end-of-body flush — and empties the list.
func (co *Coalescer[Op]) Drain(s Shipper[Op]) {
	for i := range co.bufs {
		co.bufs[i].ship(s)
	}
	clear(co.bufs)
	co.bufs = co.bufs[:0]
}

// Recycle gives back a slice a Shipper was handed, once nothing reads it
// any more; the coalescer clears it and starts a later batch in it.
func (co *Coalescer[Op]) Recycle(ops []Op) {
	clear(ops)
	co.free = append(co.free, ops[:0])
}

// ship hands b's operations to s; the next Add starts a new slice.
func (b *coalBuf[Op]) ship(s Shipper[Op]) {
	if len(b.ops) == 0 {
		return
	}
	ops, bytes := b.ops, b.bytes
	b.ops, b.bytes = nil, 0
	s.Ship(b.dst, ops, bytes)
}
