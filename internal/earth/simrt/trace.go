// The traced run: capture, canonical order, hand-over.
//
// A traced run buffers every event in emission order (eventBuf), and when
// the run completes flushTrace puts the buffer in the canonical order
// eventCmp defines and gives the tracer the whole stream in one call. An
// event is 56 bytes and eventCmp reads up to nine of its fields, so the
// sort does not touch events: it orders one 24-byte traceKey per event —
// Time, then the next five fields of the comparison chain packed into one
// word, then the event's position in the buffer — and each event is copied
// exactly once, from its chunk to its final place in the stream.
package simrt

import (
	"cmp"
	"slices"

	"earth/internal/earth"
	"earth/internal/sim"
)

const (
	// eventChunk is the number of events per eventBuf chunk.
	eventChunk     = 1 << eventChunkBits
	eventChunkBits = 13
)

// eventBuf buffers the run's trace events; its pointer is the tracer
// behind the earth.Sink the protocol core emits into. The stream is a list
// of fixed-size chunks, so emitting never copies what was already
// buffered; drain copies each event once, into the stream the tracer gets.
//
// The buffer lives in the run's store but keeps only one chunk for later
// runs, and drain's sort scratch none: a store that kept a large traced
// run's chunks and keys (18 MB after the benchmark's traced storm) would
// stay that large for the life of the process.
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

// traceKey stands in for one buffered event while the stream is sorted.
// (time, rest) is a prefix of eventCmp's comparison chain, so two keys that
// differ in either word order as their events do; keys equal in both are
// decided by eventCmp on the events themselves.
type traceKey struct {
	time sim.Time
	rest uint64 // packRest of the event, or 0 in every key of a wide stream
	idx  int    // the event's position in the buffer
}

// packedIDBits is the width of Node and of Peer+1 in traceKey.rest:
// 22 + 4 (phaseRank) + 8 (Kind) + 8 (Cause) + 22 = 64.
const packedIDBits = 22

// packRest packs Node, phaseRank, Kind, Cause and Peer — the fields
// eventCmp compares after Time, in its order, most significant first — into
// one word that compares as they do. Peer is stored as Peer+1 so NoPeer
// sorts first. ok is false for an event whose Node or Peer does not fit.
func packRest(e *earth.Event) (rest uint64, ok bool) {
	node, peer := uint64(e.Node), uint64(e.Peer+1)
	if node>>packedIDBits != 0 || peer>>packedIDBits != 0 {
		return 0, false
	}
	return node<<42 | uint64(phaseRank(e.Kind))<<38 | uint64(e.Kind)<<30 |
		uint64(e.Cause)<<22 | peer, true
}

// drain empties the buffer and returns its events in canonical order, as
// a new slice of exactly their number. The result is eventCmp's order for
// every input: a stream with an event packRest cannot pack (a machine of
// more than 4M nodes) sorts with rest zero in every key, that is by Time
// and then eventCmp.
//
// The keys are not sorted as one array. A run emits its events nearly in
// time order and spreads them evenly over its makespan, so a counting pass
// distributes the keys over equal-width Time buckets of about eight keys
// each and only the inside of each bucket is sorted. Buckets are an
// optimisation of the common case and never worse than one sort of
// everything: with one Time for every event, or one outlier stretching the
// range, (nearly) all keys share a bucket, which pdqsort sorts in
// O(n log n).
func (b *eventBuf) drain() []earth.Event {
	n := b.len()
	if n == 0 {
		return nil
	}
	chunks := append(b.full, b.cur)
	at := func(i int) *earth.Event { return &chunks[i>>eventChunkBits][i&(eventChunk-1)] }

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

	// end[k] counts bucket k's keys, then is the index its next key goes
	// to, and after the scatter is where the bucket ends.
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
	keys := make([]traceKey, n)
	idx, wide := 0, false
	for _, c := range chunks {
		for i := range c {
			e := &c[i]
			rest, ok := packRest(e)
			wide = wide || !ok
			k := bucket(e.Time)
			keys[end[k]] = traceKey{time: e.Time, rest: rest, idx: idx}
			end[k]++
			idx++
		}
	}
	if wide {
		for i := range keys {
			keys[i].rest = 0
		}
	}

	keyCmp := func(x, y traceKey) int {
		if c := cmp.Compare(x.time, y.time); c != 0 {
			return c
		}
		if c := cmp.Compare(x.rest, y.rest); c != 0 {
			return c
		}
		return eventCmp(at(x.idx), at(y.idx))
	}
	start := 0
	for _, e := range end {
		if e-start > 1 {
			slices.SortFunc(keys[start:e], keyCmp)
		}
		start = e
	}

	out := make([]earth.Event, n)
	for i := range keys {
		out[i] = *at(keys[i].idx)
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
