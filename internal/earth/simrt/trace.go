// The traced run: capture, canonical order, hand-over.
//
// A traced run buffers every event in emission order (eventBuf), and when
// the run completes flushTrace puts the buffer in the canonical order
// eventCmp defines and gives the tracer the whole stream in one call. Each
// event is copied exactly once, from its chunk into its Time bucket of the
// stream, and then sorted inside that bucket in place.
package simrt

import (
	"cmp"
	"slices"

	"earth/internal/earth"
	"earth/internal/sim"
)

// eventChunk is the number of events per eventBuf chunk.
const eventChunk = 1 << 13

// eventBuf buffers the run's trace events; its pointer is the tracer
// behind the earth.Sink the protocol core emits into. The stream is a list
// of fixed-size chunks, so emitting never copies what was already
// buffered; drain copies each event once, into the stream the tracer gets.
//
// The buffer lives in the run's store but keeps only one chunk for later
// runs, and drain's bucket counts none: a store that kept a large traced
// run's chunks (18 MB with the sort keys they once had, after the
// benchmark's traced storm) would stay that large for the life of the
// process.
type eventBuf struct {
	full [][]earth.Event // filled chunks, oldest first
	cur  []earth.Event   // the chunk being filled
}

func (b *eventBuf) Event(ev earth.Event) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]earth.Event, 0, eventChunk)
	}
	b.cur = append(b.cur, ev)
}

func (b *eventBuf) len() int { return len(b.full)*eventChunk + len(b.cur) }

// reset empties the buffer, keeping one chunk for the next run.
func (b *eventBuf) reset() {
	if len(b.full) > 0 {
		b.cur = b.full[0]
	}
	b.full, b.cur = nil, b.cur[:0]
}

// phaseRank orders event kinds within one (Time, Node) instant for the
// canonical trace sort: recovery re-dispatch first (it explains the work
// that follows), then thread execution, handler execution, sends, fault
// bookkeeping, deliveries, sync signals, and utilisation samples last.
// Deliver-before-sync preserves the causal reading (a sync fired by a
// delivered message appears after the delivery that caused it).
func phaseRank(k earth.EventKind) uint8 {
	switch k {
	case earth.EvNodeDown, earth.EvFrameReplayed, earth.EvWorkReassigned,
		earth.EvPartitionFence, earth.EvRejoined:
		return 0
	case earth.EvThreadRun:
		return 1
	case earth.EvHandlerRun:
		return 2
	case earth.EvPutSend, earth.EvGetSend, earth.EvInvokeSend, earth.EvPostSend,
		earth.EvTokenSpawn, earth.EvStealRequest, earth.EvBatchFlush:
		return 3
	case earth.EvFaultInjected, earth.EvTimedOut, earth.EvRetry, earth.EvRecovered,
		earth.EvFenced, earth.EvCorrupt, earth.EvPartitionStart, earth.EvPartitionHeal:
		return 4
	case earth.EvPutDeliver, earth.EvGetDeliver, earth.EvInvokeDeliver,
		earth.EvTokenDeliver, earth.EvStealGrant, earth.EvStealMiss:
		return 5
	case earth.EvSyncSignal:
		return 6
	case earth.EvSanitize:
		// End-of-run scan results; after everything else at the makespan.
		return 8
	default: // EvUtilSample
		return 7
	}
}

// eventCmp is the canonical trace order as a three-way comparison:
// virtual time, node, phase, then every remaining field, so it returns 0
// only for identical events and the (unstable) sort yields one
// well-defined stream whatever order the events were buffered in.
func eventCmp(a, b *earth.Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(phaseRank(a.Kind), phaseRank(b.Kind)); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Cause, b.Cause); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Peer, b.Peer); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dur, b.Dur); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Wait, b.Wait); c != 0 {
		return c
	}
	return cmp.Compare(a.Bytes, b.Bytes)
}

// drain empties the buffer and returns its events in canonical order
// (eventCmp's), as a new slice of exactly their number.
//
// The stream is not sorted as one array. A run emits its events nearly in
// time order and spreads them evenly over its makespan, so a counting pass
// distributes the events, straight from the chunks, over equal-width Time
// buckets of about eight events each in the output, and only the inside of
// each bucket is sorted there, in place. Buckets are an optimisation of the
// common case and never worse than one sort of everything: with one Time
// for every event, or one outlier stretching the range, (nearly) all events
// share a bucket, which pdqsort sorts in O(n log n).
func (b *eventBuf) drain() []earth.Event {
	n := b.len()
	if n == 0 {
		return nil
	}
	chunks := append(b.full, b.cur)

	lo, hi := chunks[0][0].Time, chunks[0][0].Time
	for _, c := range chunks {
		for i := range c {
			lo, hi = min(lo, c[i].Time), max(hi, c[i].Time)
		}
	}
	// Bucket widths are powers of two: the smallest that leaves at most
	// n/8 + 1 buckets. The subtractions cannot overflow in uint64.
	span, shift := uint64(hi)-uint64(lo), 0
	for span>>shift > uint64(n/8) {
		shift++
	}
	bucket := func(t sim.Time) int { return int((uint64(t) - uint64(lo)) >> shift) }

	// end[k] counts bucket k's events, then is the index its next event
	// goes to, and after the scatter is where the bucket ends.
	end := make([]int, bucket(hi)+1)
	for _, c := range chunks {
		for i := range c {
			end[bucket(c[i].Time)]++
		}
	}
	sum := 0
	for k, cnt := range end {
		end[k] = sum
		sum += cnt
	}
	out := make([]earth.Event, n)
	for _, c := range chunks {
		for i := range c {
			k := bucket(c[i].Time)
			out[end[k]] = c[i]
			end[k]++
		}
	}

	start := 0
	for _, e := range end {
		if e-start > 1 {
			slices.SortFunc(out[start:e], func(x, y earth.Event) int { return eventCmp(&x, &y) })
		}
		start = e
	}
	b.reset()
	return out
}

// flushTrace gives the tracer the run's events in canonical order, whole
// (earth.BatchTracer) or one by one.
func (rt *Runtime) flushTrace() {
	if rt.cfg.Tracer == nil {
		return
	}
	if evs := rt.events.drain(); len(evs) > 0 {
		earth.EmitBatch(rt.cfg.Tracer, evs)
	}
}
