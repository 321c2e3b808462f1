package simrt

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
	"earth/internal/obs"
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
// missing), and the buffer must refill the chunk it kept instead of
// allocating a new first chunk.
func TestTraceBuffersResetBetweenRuns(t *testing.T) {
	const nodes, work = 4, 64
	rec := obs.NewRecorder()
	rt := New(earth.Config{Nodes: nodes, Seed: 1, Tracer: rec})
	body := seamProgram(nodes, work, eventChunk+100) // spills into a second chunk
	buf := &rt.events

	rt.Run(body)
	first := rec.Events()
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

// funcTracer is a Tracer with no Grow method.
type funcTracer func(earth.Event)

func (f funcTracer) Event(ev earth.Event) { f(ev) }

// TestTracerWithoutGrow checks the length hint is optional: a bare
// function-backed Tracer receives the same stream a Recorder does.
func TestTracerWithoutGrow(t *testing.T) {
	cfg := earth.Config{Nodes: 4, Seed: 1}
	want := record(cfg, seamProgram(4, 16, 3))
	var got []earth.Event
	cfg.Tracer = funcTracer(func(ev earth.Event) { got = append(got, ev) })
	New(cfg).Run(seamProgram(4, 16, 3))
	if !slices.Equal(got, want) {
		t.Fatalf("func-backed tracer saw %d events, Recorder %d, or they differ", len(got), len(want))
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

// benchmarkRunStorm times whole runs of a 2000-token storm on 20 nodes
// and reports simulator events per host second. Each iteration builds its
// Runtime (and Recorder), as earthsim, the harness and the benchmark do: a
// reused pair would hide the buffer growth a traced run pays.
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
