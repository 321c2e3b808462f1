package simrt

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
	"earth/internal/obs"
	"earth/internal/sim"
)

// seamProgram spreads work invocations over the nodes — each fetches a
// word from its neighbour and signals the root's frame — and then pads the
// trace with pad local sync signals, one event each, so a test can place
// the stream length exactly on a chunk boundary. It uses no tokens, so a
// second Run on the same Runtime repeats the schedule.
func seamProgram(nodes, work, pad int) earth.ThreadBody {
	cells := make([]float64, nodes)
	return func(c earth.Ctx) {
		f := earth.NewFrame(c.Node(), 2, 2)
		f.InitSync(0, work, 0, 0)
		f.SetThread(0, func(earth.Ctx) {})
		f.InitSync(1, pad+1, 0, 1)
		f.SetThread(1, func(earth.Ctx) {})
		for i := 0; i < work; i++ {
			to := earth.NodeID(i % nodes)
			c.Invoke(to, 8, func(c earth.Ctx) {
				var got float64
				g := earth.NewFrame(c.Node(), 1, 1)
				g.InitSync(0, 1, 0, 0)
				g.SetThread(0, func(c earth.Ctx) { c.Sync(f, 0) })
				earth.GetSyncF64(c, (to+1)%earth.NodeID(nodes), &cells[(int(to)+1)%nodes], &got, g, 0)
			})
		}
		for i := 0; i < pad; i++ {
			c.Sync(f, 1)
		}
	}
}

// record runs body under cfg with a Recorder attached and returns the stream.
func record(cfg earth.Config, body earth.ThreadBody) []earth.Event {
	rec := obs.NewRecorder()
	cfg.Tracer = rec
	New(cfg).Run(body)
	return rec.Events()
}

// TestTraceChunkSeams places the trace buffer exactly on the boundaries
// chunking introduces — one full chunk, one event into the second,
// several chunks — and checks nothing is lost, duplicated or reordered
// there: the stream has the exact length and is in canonical order.
func TestTraceChunkSeams(t *testing.T) {
	const nodes, work = 4, 64
	cfg := earth.Config{Nodes: nodes, Seed: 1}
	base := len(record(cfg, seamProgram(nodes, work, 0)))
	for _, want := range []int{eventChunk - 1, eventChunk, eventChunk + 1, 3*eventChunk + 17} {
		t.Run(fmt.Sprint(want), func(t *testing.T) {
			one := record(cfg, seamProgram(nodes, work, want-base))
			if len(one) != want {
				t.Fatalf("stream has %d events, want %d", len(one), want)
			}
			for i := 1; i < len(one); i++ {
				if eventCmp(&one[i-1], &one[i]) > 0 {
					t.Fatalf("events %d and %d out of canonical order: %+v, %+v", i-1, i, one[i-1], one[i])
				}
			}
		})
	}
}

// TestTraceBuffersResetBetweenRuns runs one program twice on one Runtime:
// the second stream must equal the first (nothing left over, nothing
// missing), and the store the first run gave back must hold one empty
// chunk, which the second run refills instead of allocating a new first
// chunk.
func TestTraceBuffersResetBetweenRuns(t *testing.T) {
	const nodes, work = 4, 64
	rec := obs.NewRecorder()
	rt := New(earth.Config{Nodes: nodes, Seed: 1, Tracer: rec})
	body := seamProgram(nodes, work, eventChunk+100) // spills into a second chunk

	rt.Run(body)
	first := rec.Events()
	listed := stores.Listed()
	buf := &listed[len(listed)-1].events
	if len(buf.full) != 0 || len(buf.cur) != 0 || cap(buf.cur) != eventChunk {
		t.Fatalf("after a run the buffer holds %d full chunks and a current chunk of len %d cap %d, want one empty chunk",
			len(buf.full), len(buf.cur), cap(buf.cur))
	}
	kept := &buf.cur[:1][0]

	rec.Reset()
	rt.Run(body)
	if second := rec.Events(); !slices.Equal(first, second) {
		t.Fatalf("second run's stream differs from the first (%d vs %d events)", len(second), len(first))
	}
	if &buf.cur[:1][0] != kept {
		t.Error("second run allocated a new first chunk instead of refilling the kept one")
	}
}

// funcTracer is a Tracer that does not take batches.
type funcTracer func(earth.Event)

func (f funcTracer) Event(ev earth.Event) { f(ev) }

// TestTracerWithoutBatch checks the batch hand-over is optional: a bare
// function-backed Tracer receives, one Event call at a time, the same
// stream a Recorder is handed whole.
func TestTracerWithoutBatch(t *testing.T) {
	cfg := earth.Config{Nodes: 4, Seed: 1}
	want := record(cfg, seamProgram(4, 16, 3))
	var got []earth.Event
	cfg.Tracer = funcTracer(func(ev earth.Event) { got = append(got, ev) })
	New(cfg).Run(seamProgram(4, 16, 3))
	if !slices.Equal(got, want) {
		t.Fatalf("func-backed tracer saw %d events, Recorder %d, or they differ", len(got), len(want))
	}
}

// batchSpy is a BatchTracer that keeps the slices it is handed.
type batchSpy struct {
	funcTracer
	batches [][]earth.Event
}

func (s *batchSpy) EventBatch(evs []earth.Event) { s.batches = append(s.batches, evs) }

// TestBatchHandOver pins what a BatchTracer receives from a run: one call,
// the whole stream, in a slice of exactly its length — and what follows
// for a Recorder: it holds that slice rather than a copy, a second Run on
// the same Runtime appends to the stream without touching the first run's
// slice, and obs.Multi delivers the same stream to a tracer that takes
// batches and to one that does not.
func TestBatchHandOver(t *testing.T) {
	const nodes, work = 4, 64
	body := seamProgram(nodes, work, eventChunk) // two chunks
	spy := &batchSpy{funcTracer: func(earth.Event) { t.Error("a BatchTracer got a per-event call") }}
	rec, met := obs.NewRecorder(), obs.NewMetrics()
	var single []earth.Event
	perEvent := funcTracer(func(ev earth.Event) { single = append(single, ev) })
	rt := New(earth.Config{Nodes: nodes, Seed: 1, Tracer: obs.Multi(spy, rec, perEvent, met)})

	rt.Run(body)
	if len(spy.batches) != 1 {
		t.Fatalf("one Run made %d EventBatch calls, want 1", len(spy.batches))
	}
	first := spy.batches[0]
	if len(first) <= eventChunk || cap(first) != len(first) {
		t.Fatalf("batch has len %d cap %d, want more than a chunk and cap == len", len(first), cap(first))
	}
	if got := rec.Events(); !slices.Equal(got, first) || !slices.Equal(single, first) {
		t.Fatalf("Recorder holds %d events, the per-event tracer %d, the batch %d, or they differ", len(got), len(single), len(first))
	}
	direct := obs.NewMetrics()
	for _, ev := range first {
		direct.Event(ev)
	}
	if met.Render() != direct.Render() {
		t.Error("Metrics behind Multi aggregated a different stream from the batch")
	}

	// The second run's stream lands after the first in the Recorder; the
	// first batch, which the spy (and anyone else) may still hold, is left
	// as it was.
	keep := slices.Clone(first)
	rt.Run(body)
	if len(spy.batches) != 2 {
		t.Fatalf("two Runs made %d EventBatch calls, want 2", len(spy.batches))
	}
	if !slices.Equal(first, keep) {
		t.Error("the second Run wrote into the first run's batch")
	}
	both := rec.Events()
	if len(both) != 2*len(first) || !slices.Equal(both[:len(first)], first) || !slices.Equal(both[len(first):], spy.batches[1]) {
		t.Errorf("after two Runs the Recorder holds %d events, want the two batches (%d each) in order", len(both), len(first))
	}
}

// TestEventCmp checks eventCmp is the total order its comment documents.
func TestEventCmp(t *testing.T) {
	// Kinds within one (Time, Node) instant order by phaseRank, then Kind.
	for a := 0; a < earth.KindCount; a++ {
		for b := 0; b < earth.KindCount; b++ {
			ka, kb := earth.EventKind(a), earth.EventKind(b)
			ea, eb := earth.Event{Time: 5, Node: 2, Kind: ka}, earth.Event{Time: 5, Node: 2, Kind: kb}
			want := cmp.Compare(phaseRank(ka), phaseRank(kb))
			if want == 0 {
				want = cmp.Compare(a, b)
			}
			if got := eventCmp(&ea, &eb); got != want {
				t.Errorf("eventCmp(kind %v, kind %v) = %d, want %d", ka, kb, got, want)
			}
		}
	}

	// Field precedence, in the documented order: hi is larger than lo in
	// every field, and each row pits an event that is smaller in one field
	// but larger in all later ones against its opposite.
	lo := earth.Event{Time: 1, Node: 1, Kind: earth.EvThreadRun, Cause: 1, Peer: 1, Dur: 1, Wait: 1, Bytes: 1}
	hi := earth.Event{Time: 2, Node: 2, Kind: earth.EvSyncSignal, Cause: 2, Peer: 2, Dur: 2, Wait: 2, Bytes: 2}
	fields := []struct {
		name string
		set  func(dst *earth.Event, src earth.Event)
	}{
		{"Time", func(d *earth.Event, s earth.Event) { d.Time = s.Time }},
		{"Node", func(d *earth.Event, s earth.Event) { d.Node = s.Node }},
		{"Kind", func(d *earth.Event, s earth.Event) { d.Kind = s.Kind }},
		{"Cause", func(d *earth.Event, s earth.Event) { d.Cause = s.Cause }},
		{"Peer", func(d *earth.Event, s earth.Event) { d.Peer = s.Peer }},
		{"Dur", func(d *earth.Event, s earth.Event) { d.Dur = s.Dur }},
		{"Wait", func(d *earth.Event, s earth.Event) { d.Wait = s.Wait }},
		{"Bytes", func(d *earth.Event, s earth.Event) { d.Bytes = s.Bytes }},
	}
	for i, f := range fields {
		// a and b agree on fields before i; a is smaller in field i and
		// larger in every later field.
		a, b := lo, lo
		f.set(&b, hi)
		for _, later := range fields[i+1:] {
			later.set(&a, hi)
		}
		if got := eventCmp(&a, &b); got != -1 {
			t.Errorf("%s should decide before the fields after it: eventCmp = %d, want -1", f.name, got)
		}
		if got := eventCmp(&b, &a); got != 1 {
			t.Errorf("%s: eventCmp is not antisymmetric: reverse = %d, want 1", f.name, got)
		}
		// Differing in field i alone is enough to be unequal.
		c := lo
		f.set(&c, hi)
		if eventCmp(&lo, &c) != -1 || eventCmp(&c, &lo) != 1 {
			t.Errorf("events differing only in %s compare %d / %d, want -1 / 1", f.name, eventCmp(&lo, &c), eventCmp(&c, &lo))
		}
	}
	if eventCmp(&hi, &hi) != 0 {
		t.Error("an event does not compare equal to itself")
	}
}

// The comparison chain of eventCmp, one level per field it compares.
const (
	lvTime = iota
	lvNode
	lvRank
	lvKind
	lvCause
	lvPeer
	lvDur
	lvWait
	lvBytes
	numLevels
)

// idEdges are Node and Peer values around lastID, the largest packRest
// can pack as a Node (a Peer is packed as Peer+1, so its last is one
// lower). An id set is a prefix of it for each field: small ids; ids up to
// the last that fits; a Node, or a Peer, just past it while the other
// field still fits; and ids no machine has.
const lastID = 1<<packedIDBits - 1

var (
	idEdges = []earth.NodeID{0, 1, 2, 19, lastID - 2, lastID - 1, lastID, lastID + 1, lastID + 2,
		1 << 40, earth.NodeID(^uint(0) >> 1), -2, -1 << 62}
	nodeSets = [...]int{4, 7, 9, 7, len(idEdges)} // Node is drawn from idEdges[:nodeSets[ids]]
	peerSets = [...]int{4, 6, 6, 9, len(idEdges)} // and Peer from idEdges[:peerSets[ids]] or NoPeer
)

// genTraceEvents draws n events that all agree on the first tied levels of
// the comparison chain and differ at random, over small domains so that
// further ties and whole duplicates happen, in the levels after. shape
// picks the Time distribution of the levels left free: 0 a range about as
// wide as n, 1 the whole int64 range, 2 a narrow range with one outlier at
// each end of int64, 3 negative and positive around zero. ids picks the id
// set: with 0 and 1 every event packs, from 2 on the stream is wide.
func genTraceEvents(rng *rand.Rand, n, tied int, shape, ids uint8) []earth.Event {
	draw := func(e *earth.Event, from int) {
		if from <= lvTime {
			switch shape % 4 {
			case 0:
				e.Time = sim.Time(rng.Intn(n + 1))
			case 1:
				e.Time = sim.Time(rng.Uint64())
			case 2:
				e.Time = 1000 + sim.Time(rng.Intn(16))
			case 3:
				e.Time = sim.Time(rng.Intn(64) - 32)
			}
		}
		if from <= lvNode {
			e.Node = idEdges[rng.Intn(nodeSets[int(ids)%len(nodeSets)])]
		}
		if from <= lvKind { // lvRank or lvKind free: redraw the kind ...
			want := phaseRank(e.Kind)
			for {
				e.Kind = earth.EventKind(rng.Intn(earth.KindCount + 2)) // two kinds past the defined ones
				if from <= lvRank || phaseRank(e.Kind) == want {        // ... within the tied rank
					break
				}
			}
		}
		if from <= lvCause {
			e.Cause = earth.Cause(rng.Intn(4))
		}
		if from <= lvPeer {
			e.Peer = idEdges[rng.Intn(peerSets[int(ids)%len(peerSets)])]
			if rng.Intn(3) == 0 {
				e.Peer = earth.NoPeer
			}
		}
		if from <= lvDur {
			e.Dur = sim.Time(rng.Intn(3))
		}
		if from <= lvWait {
			e.Wait = sim.Time(rng.Intn(3))
		}
		if from <= lvBytes {
			e.Bytes = rng.Intn(3) * 8
		}
	}
	var base earth.Event
	draw(&base, lvTime)
	evs := make([]earth.Event, n)
	for i := range evs {
		evs[i] = base
		draw(&evs[i], tied)
	}
	if shape%4 == 2 && tied == lvTime && n >= 2 {
		evs[rng.Intn(n)].Time = math.MaxInt64
		evs[rng.Intn(n)].Time = math.MinInt64
	}
	return evs
}

// checkTraceOrder buffers evs in the order given and requires drain to
// return exactly what sorting a copy with eventCmp gives, and to leave the
// buffer empty.
func checkTraceOrder(t *testing.T, evs []earth.Event) {
	t.Helper()
	want := slices.Clone(evs)
	slices.SortFunc(want, func(a, b earth.Event) int { return eventCmp(&a, &b) })
	var buf eventBuf
	for _, ev := range evs {
		buf.Event(ev)
	}
	got := buf.drain()
	if len(got) != len(want) || cap(got) != len(got) {
		t.Fatalf("drain returned len %d cap %d for %d events", len(got), cap(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d of %d: drain has %+v, eventCmp order has %+v", i, len(want), got[i], want[i])
		}
	}
	if buf.len() != 0 || len(buf.full) != 0 {
		t.Fatalf("drain left %d events in %d full chunks", buf.len(), len(buf.full))
	}
}

// TestTraceSortMatchesEventCmp is the oracle of the keyed sort: for event
// multisets tied down to every level of the comparison chain, with ids up
// to the packed width and ids beyond it (the fall-through to eventCmp on a
// wide machine), over every Time shape including one Time for all and a
// single outlier, and at lengths around the chunk seams, drain's output
// equals slices.SortFunc with eventCmp element for element.
func TestTraceSortMatchesEventCmp(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 2, 7, 100, eventChunk - 1, eventChunk, eventChunk + 1, 3*eventChunk + 17} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			for tied := lvTime; tied <= numLevels; tied++ {
				for shape := uint8(0); shape < 4; shape++ {
					for ids := uint8(0); int(ids) < len(nodeSets); ids++ {
						if tied > lvTime && shape > 0 {
							continue // every event has the one Time: its shape does not matter
						}
						if n > 100 && tied > lvNode && tied < numLevels {
							continue // the packing is settled on short streams; long ones are for buckets and chunks
						}
						t.Logf("tied=%d shape=%d ids=%d", tied, shape, ids)
						checkTraceOrder(t, genTraceEvents(rng, n, tied, shape, ids))
					}
				}
			}
		})
	}
}

// FuzzTraceOrder lets the fuzzer pick the generator's parameters.
func FuzzTraceOrder(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(eventChunk+1), uint8(lvTime+1), uint8(2), uint8(1))
	f.Add(int64(3), uint16(3*eventChunk), uint8(lvPeer), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, tied, shape, ids uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkTraceOrder(t, genTraceEvents(rng, int(n)%(3*eventChunk), int(tied)%(numLevels+1), shape, ids))
	})
}

// TestTracedRunAllocBudget caps the bytes a traced run allocates beyond an
// untraced one, per event it emits, once a traced and an untraced run have
// left the free list a store that fits both (otherwise whichever run is
// measured first pays the queue growth the other reuses): the chunk the
// event is captured in (56 bytes, less the one chunk the store keeps), its
// sort key (24), its share of the bucket counts (1) and its place in the
// stream the tracer is handed (56), plus the unused tail of the last chunk
// — 133.8 measured on this run's 86 732 events. The parent commit's fresh
// chunks came to 139.0; one more copy of the stream does not fit under the
// cap.
func TestTracedRunAllocBudget(t *testing.T) {
	const budget = 135
	body := enginetest.StormProgram(20, 10000)
	allocated := func(tr earth.Tracer) uint64 {
		var before, after runtime.MemStats
		rt := New(earth.Config{Nodes: 20, Seed: 1, Tracer: tr})
		runtime.ReadMemStats(&before)
		rt.Run(body)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(obs.NewRecorder())
	allocated(nil)
	rec := obs.NewRecorder()
	traced, untraced := allocated(rec), allocated(nil)
	perEvent := float64(traced-untraced) / float64(rec.Len())
	if perEvent > budget {
		t.Errorf("tracing allocates %.1f bytes per event (%d events), budget %d", perEvent, rec.Len(), budget)
	} else {
		t.Logf("%.1f bytes per traced event over %d events", perEvent, rec.Len())
	}
}

// benchmarkRunStorm times whole runs of a 2000-token storm on 20 nodes
// and reports simulator events per host second. Each iteration builds its
// Runtime (and Recorder), as earthsim, the harness and the benchmark do;
// the queues, envelopes and event heap a run grows come from the free
// list, as they do there from the second run on, and a traced run still
// makes all but one of its trace chunks and its sort scratch.
func benchmarkRunStorm(b *testing.B, traced bool) {
	body := enginetest.StormProgram(20, 2000)
	var events uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := earth.Config{Nodes: 20, Seed: 1}
		if traced {
			cfg.Tracer = obs.NewRecorder()
		}
		events += New(cfg).Run(body).Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRunStormUntraced / BenchmarkRunStormTraced are the tracer's
// feature-off / feature-on pair: the same runs without and with an
// obs.Recorder attached, so the capture → merge → sort → hand-over cost
// is the difference between two lines of `go test -bench RunStorm`.
func BenchmarkRunStormUntraced(b *testing.B) { benchmarkRunStorm(b, false) }
func BenchmarkRunStormTraced(b *testing.B)   { benchmarkRunStorm(b, true) }
