package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/pin"
	"earth/internal/sim"
)

func TestMain(m *testing.M) { os.Exit(pin.Main(m)) }

// traceWorkload exercises every traced operation: tokens (with steals
// under the steal balancer), Put with sync completion, Invoke, a remote
// Get, a Post handler and modelled compute.
func traceWorkload(c earth.Ctx) {
	f := earth.NewFrame(0, 1, 1)
	f.InitSync(0, 4, 0, 0)
	f.SetThread(0, func(c earth.Ctx) {})
	for i := 0; i < 4; i++ {
		c.Token(16, func(c earth.Ctx) {
			c.Compute(50 * sim.Microsecond)
			c.Put(0, 8, func() {}, f, 0)
		})
	}
	c.Invoke(1, 8, func(c earth.Ctx) {
		src := new(float64)
		*src = 2.5
		var v float64
		earth.GetSyncF64(c, 2, src, &v, nil, 0)
	})
	c.Post(2, 8, func(c earth.Ctx) { c.Compute(5 * sim.Microsecond) })
}

func runTracedSim(t *testing.T) *Recorder {
	t.Helper()
	rec := NewRecorder()
	rt := simrt.New(earth.Config{
		Nodes: 3, Seed: 1, Tracer: rec,
		UtilSamplePeriod: 20 * sim.Microsecond,
	})
	rt.Run(traceWorkload)
	return rec
}

func TestRecorderCollectsAllOpKinds(t *testing.T) {
	rec := runTracedSim(t)
	seen := map[earth.EventKind]int{}
	for _, e := range rec.Events() {
		seen[e.Kind]++
	}
	for _, k := range []earth.EventKind{
		earth.EvThreadRun, earth.EvHandlerRun, earth.EvSyncSignal,
		earth.EvGetSend, earth.EvGetDeliver, earth.EvPutSend, earth.EvPutDeliver,
		earth.EvInvokeSend, earth.EvInvokeDeliver, earth.EvPostSend,
		earth.EvTokenSpawn, earth.EvStealGrant, earth.EvUtilSample,
	} {
		if seen[k] == 0 {
			t.Errorf("no %v events recorded (saw %v)", k, seen)
		}
	}
}

func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	// The traced run must produce exactly the stats of an untraced run:
	// installing a tracer may not change scheduling, timing or counters.
	plain := simrt.New(earth.Config{Nodes: 3, Seed: 1})
	stPlain := plain.Run(traceWorkload)
	rec := NewRecorder()
	traced := simrt.New(earth.Config{
		Nodes: 3, Seed: 1, Tracer: rec, UtilSamplePeriod: 20 * sim.Microsecond,
	})
	stTraced := traced.Run(traceWorkload)
	if stPlain.Elapsed != stTraced.Elapsed {
		t.Errorf("elapsed diverged: plain %v traced %v", stPlain.Elapsed, stTraced.Elapsed)
	}
	if stPlain.Events != stTraced.Events {
		t.Errorf("event count diverged: plain %d traced %d", stPlain.Events, stTraced.Events)
	}
	for i := range stPlain.Nodes {
		if stPlain.Nodes[i] != stTraced.Nodes[i] {
			t.Errorf("node %d stats diverged:\nplain  %+v\ntraced %+v",
				i, stPlain.Nodes[i], stTraced.Nodes[i])
		}
	}
}

// TestChromeTraceDeterministicAndGolden: the traced workload's Chrome
// export has a lane per node and the named op events, and its bytes are
// pinned in the package manifest.
func TestChromeTraceDeterministicAndGolden(t *testing.T) {
	a, err := ChromeTrace(runTracedSim(t).Events())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	lanes := map[float64]bool{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if tid, ok := e["tid"].(float64); ok {
			lanes[tid] = true
		}
		names[e["name"].(string)] = true
	}
	for _, lane := range []float64{0, 1, 2} {
		if !lanes[lane] {
			t.Errorf("missing lane for node %v", lane)
		}
	}
	for _, want := range []string{"thread:token", "put.send", "get.deliver", "steal.grant"} {
		if !names[want] {
			t.Errorf("missing named op event %q", want)
		}
	}
	pin.Bytes(t, "chrome_trace.json", a)
}

func TestChromeTraceFlowEvents(t *testing.T) {
	a, err := ChromeTrace(runTracedSim(t).Events())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	// Every flow start must have a matching finish with the same id, and
	// the classes the workload exercises must all be present.
	open := map[string]string{} // "class/id" -> ph seen
	classes := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e["cat"] != "flow" {
			continue
		}
		ph := e["ph"].(string)
		key := fmt.Sprintf("%v/%v", e["name"], e["id"])
		if e["id"].(float64) == 0 {
			t.Fatalf("flow event with zero id: %v", e)
		}
		switch ph {
		case "s":
			if _, dup := open[key]; dup {
				t.Errorf("duplicate flow start %s", key)
			}
			open[key] = ph
			classes[e["name"].(string)]++
		case "f":
			if _, ok := open[key]; !ok {
				t.Errorf("flow finish without start: %s", key)
			}
			delete(open, key)
			if e["bp"] != "e" {
				t.Errorf("flow finish missing bp=e: %v", e)
			}
		default:
			t.Errorf("unexpected flow phase %q", ph)
		}
	}
	for _, class := range []string{"get", "put", "invoke", "token", "steal"} {
		if classes[class] == 0 {
			t.Errorf("no %q flow arrows emitted (classes: %v)", class, classes)
		}
	}
	if len(classes) == 0 {
		t.Fatal("no flow events at all")
	}
}

// crashWorkload spreads stealable tokens and then loses node 2, so the
// trace contains the full crash vocabulary: EvNodeDown on the adopting
// survivor, EvFrameReplayed for its checkpointed work and
// EvWorkReassigned for its re-dispatched tokens.
func runCrashTracedSim(t *testing.T) *Recorder {
	t.Helper()
	rec := NewRecorder()
	rt := simrt.New(earth.Config{
		Nodes: 4, Seed: 9, Tracer: rec,
		Balancer: earth.BalanceSteal,
		Faults: &faults.Plan{Seed: 9, Crash: []faults.Crash{
			{Node: 2, At: 250 * sim.Microsecond}}},
	})
	rt.Run(func(c earth.Ctx) {
		// An invoke fan-in builds a backlog of queued threads on node 2
		// (replayed on its adopter after the crash) while the token tree
		// keeps its pool stocked (re-dispatched after the crash).
		const parts = 12
		f := earth.NewFrame(2, 1, 1)
		f.InitSync(0, parts, 0, 0)
		f.SetThread(0, func(c earth.Ctx) {})
		for i := 0; i < parts; i++ {
			c.Invoke(earth.NodeID(i%4), 8, func(c earth.Ctx) {
				c.Compute(50 * sim.Microsecond)
				c.Sync(f, 0)
			})
		}
		var spawn func(c earth.Ctx, depth int)
		spawn = func(c earth.Ctx, depth int) {
			c.Compute(60 * sim.Microsecond)
			if depth == 0 {
				return
			}
			for i := 0; i < 2; i++ {
				c.Token(16, func(c earth.Ctx) { spawn(c, depth-1) })
			}
		}
		spawn(c, 4)
	})
	return rec
}

// TestChromeTraceCrashEventsGolden: the crash run's trace carries the
// crash vocabulary, and its Chrome export's bytes are pinned.
func TestChromeTraceCrashEventsGolden(t *testing.T) {
	rec := runCrashTracedSim(t)
	seen := map[earth.EventKind]int{}
	for _, e := range rec.Events() {
		seen[e.Kind]++
	}
	for _, k := range []earth.EventKind{
		earth.EvNodeDown, earth.EvFrameReplayed, earth.EvWorkReassigned,
	} {
		if seen[k] == 0 {
			t.Errorf("crash run emitted no %v events", k)
		}
	}
	a, err := ChromeTrace(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"node.down", "frame.replayed", "work.reassigned"} {
		if !strings.Contains(string(a), `"name":"`+name+`"`) {
			t.Errorf("crash trace missing %q instant events", name)
		}
	}
	pin.Bytes(t, "chrome_trace_crash.json", a)
}

func TestLivertTracerRaceFree(t *testing.T) {
	// All executors emit concurrently into one Metrics + Recorder fan-out;
	// run under -race (CI does) to prove the hooks are data-race free.
	met := NewMetrics()
	rec := NewRecorder()
	rt := livert.New(earth.Config{Nodes: 4, Seed: 2, Tracer: Multi(met, rec)})
	total := 0
	var mu sync.Mutex
	var split func(c earth.Ctx, lo, hi int)
	split = func(c earth.Ctx, lo, hi int) {
		if hi-lo <= 2 {
			s := 0
			for v := lo; v < hi; v++ {
				s += v
			}
			// Hop through a guaranteed-remote node so send/deliver events
			// are emitted concurrently from every executor; tokens may or
			// may not be stolen, but these legs always cross nodes.
			c.Invoke(earth.NodeID(1+lo%3), 8, func(c earth.Ctx) {
				c.Put(0, 8, func() { mu.Lock(); total += s; mu.Unlock() }, nil, 0)
			})
			return
		}
		mid := (lo + hi) / 2
		c.Token(16, func(c earth.Ctx) { split(c, lo, mid) })
		c.Token(16, func(c earth.Ctx) { split(c, mid, hi) })
	}
	rt.Run(func(c earth.Ctx) { split(c, 1, 65) })
	if total != 64*65/2 {
		t.Fatalf("sum = %d, want %d", total, 64*65/2)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded from livert")
	}
	out := met.Render()
	for _, want := range []string{"thread.run", "put.latency", "counts:"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics render missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	m.Event(earth.Event{Kind: earth.EvThreadRun, Node: 0, Dur: 1000, Wait: 500, Cause: earth.CauseSync})
	m.Event(earth.Event{Kind: earth.EvThreadRun, Node: 1, Dur: 3000, Wait: 100, Cause: earth.CauseSpawn})
	m.Event(earth.Event{Kind: earth.EvGetDeliver, Node: 0, Peer: 1, Dur: 8000, Bytes: 64})
	m.Event(earth.Event{Kind: earth.EvPutSend, Node: 0, Peer: 1, Bytes: 256})
	m.Event(earth.Event{Kind: earth.EvBatchFlush, Node: 0, Peer: 1, Bytes: 96, Wait: 5})
	m.Event(earth.Event{Kind: earth.EvBatchFlush, Node: 1, Peer: 0, Bytes: 16, Wait: 2})
	m.Event(earth.Event{Kind: earth.EvUtilSample, Node: 0, Time: 1000, Dur: 700})
	m.Event(earth.Event{Kind: earth.EvUtilSample, Node: 1, Time: 1000, Dur: 2000}) // clamped
	m.Event(earth.Event{Kind: earth.EvUtilSample, Node: 0, Time: 2000, Dur: 0})
	m.Event(earth.Event{Kind: earth.EvUtilSample, Node: 1, Time: 2000, Dur: 300})

	if n := m.threadRun.N(); n != 2 {
		t.Errorf("threadRun n = %d", n)
	}
	if n := m.syncDispatch.N(); n != 1 {
		t.Errorf("syncDispatch n = %d (only CauseSync threads count)", n)
	}
	if n := m.getRTT.N(); n != 1 || m.getRTT.max != 8000 {
		t.Errorf("getRTT n=%d max=%d", n, m.getRTT.max)
	}
	if n := m.msgBytes.N(); n != 1 || m.msgBytes.max != 256 {
		t.Errorf("msgBytes n=%d max=%d", n, m.msgBytes.max)
	}
	if n := m.batchSize.N(); n != 2 || m.batchSize.max != 5 {
		t.Errorf("batchSize n=%d max=%d (Wait carries the batch message count)", n, m.batchSize.max)
	}
	if n := m.batchBytes.N(); n != 2 || m.batchBytes.max != 96 {
		t.Errorf("batchBytes n=%d max=%d", n, m.batchBytes.max)
	}
	period, wins := m.utilWindows()
	if period != 1000 || len(wins) != 2 {
		t.Fatalf("utilWindows = %v, %v", period, wins)
	}
	if wins[0] != (0.7+1.0)/2 { // second node clamped at 1.0
		t.Errorf("window 0 = %v, want 0.85", wins[0])
	}
	if wins[1] != 0.15 {
		t.Errorf("window 1 = %v, want 0.15", wins[1])
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got["counts"].(map[string]any)["thread"].(float64) != 2 {
		t.Errorf("JSON counts wrong: %s", b)
	}
	if len(got["histograms"].([]any)) == 0 {
		t.Errorf("JSON histograms empty")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram{Name: "x", Unit: "ns"}
	if out := h.Render(); !strings.Contains(out, "n=0") {
		t.Errorf("empty render: %s", out)
	}
	for _, v := range []int64{1, 2, 3, 4, 100, 1000, 1000, 1 << 20} {
		h.Add(v)
	}
	if h.N() != 8 || h.min != 1 || h.max != 1<<20 {
		t.Errorf("n=%d min=%d max=%d", h.N(), h.min, h.max)
	}
	if q := h.Quantile(0); q < 1 || q > 2 {
		t.Errorf("p0 = %d", q)
	}
	if q := h.Quantile(1); q > 1<<20 || q < 1<<19 {
		t.Errorf("p100 = %d", q)
	}
	p50 := h.Quantile(0.5)
	if p50 < 2 || p50 > 100 {
		t.Errorf("p50 = %d outside plausible bucket", p50)
	}
	out := h.Render()
	if !strings.Contains(out, "|") || !strings.Contains(out, "#") {
		t.Errorf("render has no bars:\n%s", out)
	}
	// Zero and negative values land in bucket 0 without panicking.
	h.Add(0)
	h.Add(-5)
	if h.min != -5 {
		t.Errorf("min after negative = %d", h.min)
	}
}

func TestRecorderConcurrentEmitAndRead(t *testing.T) {
	// Readers snapshot Events()/Len() while writers emit; -race (CI)
	// proves the Recorder's locking covers the read side too.
	rec := NewRecorder()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := rec.Events()
				for _, e := range evs {
					_ = e.Kind
				}
				_ = rec.Len()
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				rec.Event(earth.Event{Kind: earth.EvThreadRun, Node: earth.NodeID(w), Time: sim.Time(i)})
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if rec.Len() != 4*2000 {
		t.Fatalf("recorded %d events, want %d", rec.Len(), 4*2000)
	}
}

// TestEventsHandsOutTheStream: Events returns the Recorder's stream
// itself, not a copy, and what a caller holds stays as it was through a
// later Event, EventBatch and Reset, which move to arrays of their own.
func TestEventsHandsOutTheStream(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 100; i++ {
		rec.Event(earth.Event{Kind: earth.EvThreadRun, Time: sim.Time(i)})
	}
	held := rec.Events()
	if &held[0] != &rec.events[0] || cap(held) != len(held) {
		t.Fatalf("Events copied the stream or handed out its spare capacity (len %d, cap %d)", len(held), cap(held))
	}
	if again := rec.Events(); &again[0] != &held[0] {
		t.Error("a second Events copied the stream")
	}
	keep := slices.Clone(held)
	rec.Event(earth.Event{Kind: earth.EvHandlerRun})
	rec.EventBatch([]earth.Event{{Kind: earth.EvSyncSignal}})
	if rec.Len() != len(keep)+2 || !slices.Equal(rec.Events()[:len(keep)], keep) {
		t.Fatalf("the Recorder holds %d events, want the %d it held and two more", rec.Len(), len(keep))
	}
	rec.Reset()
	for i := 0; i < 200; i++ {
		rec.Event(earth.Event{Kind: earth.EvPutSend, Time: sim.Time(-i)})
	}
	if !slices.Equal(held, keep) {
		t.Error("an Event, EventBatch or Reset after Events wrote into the stream it handed out")
	}
}

func TestPrometheusExposition(t *testing.T) {
	m := NewMetrics()
	rec := runTracedSim(t)
	for _, e := range rec.Events() {
		m.Event(e)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE earth_nodes gauge",
		"earth_nodes 3",
		`earth_events_total{kind="thread"}`,
		"# TYPE earth_thread_run_ns histogram",
		`earth_thread_run_ns_bucket{le="+Inf"}`,
		"earth_thread_run_ns_count",
		"earth_msg_bytes_bytes_sum",
		"earth_utilisation_mean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The +Inf cumulative bucket must equal the count for every family.
	if !strings.Contains(out, `earth_thread_run_ns_bucket{le="+Inf"} `+
		strconv.FormatUint(m.threadRun.N(), 10)) {
		t.Errorf("+Inf bucket != count:\n%s", out)
	}
}

func TestMultiFanOutAndNilDropping(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nothing must be nil (keeps engine fast path)")
	}
	a, b := NewRecorder(), NewRecorder()
	if got := Multi(a, nil); got != a {
		t.Error("Multi of one tracer should return it directly")
	}
	m := Multi(a, b)
	m.Event(earth.Event{Kind: earth.EvThreadRun})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out failed: %d, %d", a.Len(), b.Len())
	}
	a.Reset()
	if a.Len() != 0 {
		t.Error("Reset failed")
	}
}

// TestEventBatch checks what the tracers do with a stream handed over
// whole (earth.BatchTracer): an empty Recorder holds the slice itself,
// clipped so that nothing can grow into it; later events and batches are
// appended on an array of the Recorder's own, leaving the batch as it was;
// Reset lets go of a batch rather than refill it; and Multi passes the one
// slice to the tracers that take batches and plays it event by event to
// those that do not (a Metrics does not) — every tracer sees every event.
func TestEventBatch(t *testing.T) {
	const n = 1000
	batch := make([]earth.Event, n, n+8)
	for i := range batch {
		batch[i] = earth.Event{Kind: earth.EvThreadRun, Time: sim.Time(i), Dur: 1}
	}
	keep := slices.Clone(batch)
	rec, met := NewRecorder(), NewMetrics()
	bt, ok := Multi(rec, met).(earth.BatchTracer)
	if !ok {
		t.Fatal("Multi does not forward EventBatch")
	}

	bt.EventBatch(batch)
	if &rec.events[0] != &batch[0] || cap(rec.events) != n {
		t.Fatalf("an empty Recorder copied the batch or kept its spare capacity (cap %d, want %d)", cap(rec.events), n)
	}
	if got := met.threadRun.N(); got != n {
		t.Fatalf("Metrics behind Multi saw %d of %d events", got, n)
	}

	rec.Event(earth.Event{Kind: earth.EvHandlerRun})
	bt.EventBatch(batch[:3])
	if got := rec.Events(); len(got) != n+4 || !slices.Equal(got[:n], keep) ||
		got[n].Kind != earth.EvHandlerRun || !slices.Equal(got[n+1:], keep[:3]) {
		t.Fatalf("Recorder holds %d events, want the batch, one event and three more in order", len(got))
	}
	if !slices.Equal(batch[:cap(batch)], append(keep, make([]earth.Event, 8)...)) {
		t.Error("appending to the Recorder wrote into the batch it was handed")
	}

	// Reset after adopting: the next events must not land in the batch.
	rec.Reset()
	rec.EventBatch(batch)
	rec.Reset()
	rec.Event(earth.Event{Kind: earth.EvSyncSignal})
	if rec.Len() != 1 || !slices.Equal(batch, keep) {
		t.Errorf("after Reset the Recorder has %d events (want 1) or refilled the batch it had adopted", rec.Len())
	}
	// Reset of the Recorder's own array keeps it for the next stream.
	own := &rec.events[0]
	rec.Reset()
	rec.Event(earth.Event{Kind: earth.EvSyncSignal})
	if &rec.events[0] != own {
		t.Error("Reset dropped an array the Recorder owns")
	}
}
