package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"earth/internal/earth"
	"earth/internal/sim"
)

// The reference encoder: the Chrome export as it was first written, one
// struct per traceEvents entry with a map for its args, serialised by
// encoding/json. chrome.go's hand-written encoder must produce its bytes.

type refChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Id   int64          `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type refFlowKey struct {
	class string
	a, b  int
}

type refFlowState struct {
	next   int64
	queues map[refFlowKey][]int64
}

func (f *refFlowState) start(key refFlowKey) int64 {
	f.next++
	f.queues[key] = append(f.queues[key], f.next)
	return f.next
}

func (f *refFlowState) finish(key refFlowKey) int64 {
	q := f.queues[key]
	if len(q) == 0 {
		return 0
	}
	f.queues[key] = q[1:]
	return q[0]
}

func refChromeTrace(events []earth.Event) ([]byte, error) {
	usOf := func(ns int64) float64 { return float64(ns) / 1e3 }
	nodes := 0
	for _, e := range events {
		if int(e.Node) >= nodes {
			nodes = int(e.Node) + 1
		}
		if e.Peer != earth.NoPeer && int(e.Peer) >= nodes {
			nodes = int(e.Peer) + 1
		}
	}
	out := make([]refChromeEvent, 0, len(events)+nodes+1)
	out = append(out, refChromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "earth"},
	})
	for i := 0; i < nodes; i++ {
		out = append(out, refChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("node %d", i)},
		})
	}
	flows := &refFlowState{queues: map[refFlowKey][]int64{}}
	flow := func(ph, class string, id int64, e earth.Event) {
		if id == 0 {
			return
		}
		ce := refChromeEvent{Name: class, Cat: "flow", Ph: ph,
			Ts: usOf(int64(e.Time)), Pid: 0, Tid: int(e.Node), Id: id}
		if ph == "f" {
			ce.Bp = "e"
		}
		out = append(out, ce)
	}
	for _, e := range events {
		ce := refChromeEvent{Ts: usOf(int64(e.Time)), Pid: 0, Tid: int(e.Node)}
		args := map[string]any{}
		n, p := int(e.Node), int(e.Peer)
		switch e.Kind {
		case earth.EvGetSend:
			flow("s", "get", flows.start(refFlowKey{"get", n, p}), e)
		case earth.EvGetDeliver:
			flow("f", "get", flows.finish(refFlowKey{"get", n, p}), e)
		case earth.EvPutSend:
			flow("s", "put", flows.start(refFlowKey{"put", n, p}), e)
		case earth.EvPutDeliver:
			flow("f", "put", flows.finish(refFlowKey{"put", p, n}), e)
		case earth.EvInvokeSend:
			flow("s", "invoke", flows.start(refFlowKey{"invoke", n, p}), e)
		case earth.EvInvokeDeliver:
			flow("f", "invoke", flows.finish(refFlowKey{"invoke", p, n}), e)
		case earth.EvTokenSpawn:
			dst := n
			if e.Peer != earth.NoPeer {
				dst = p
				flow("s", "token.place", flows.start(refFlowKey{"place", n, p}), e)
			}
			flow("s", "token", flows.start(refFlowKey{"token", dst, dst}), e)
		case earth.EvTokenDeliver:
			flow("f", "token.place", flows.finish(refFlowKey{"place", p, n}), e)
		case earth.EvThreadRun:
			if e.Cause == earth.CauseToken {
				flow("f", "token", flows.finish(refFlowKey{"token", n, n}), e)
			}
		case earth.EvStealRequest:
			flow("s", "steal", flows.start(refFlowKey{"steal", n, p}), e)
		case earth.EvStealGrant:
			flow("f", "steal", flows.finish(refFlowKey{"steal", n, p}), e)
		}
		if e.Peer != earth.NoPeer {
			args["peer"] = int(e.Peer)
		}
		if e.Bytes > 0 {
			args["bytes"] = e.Bytes
		}
		switch e.Kind {
		case earth.EvThreadRun, earth.EvHandlerRun:
			ce.Name = fmt.Sprintf("%s:%s", e.Kind, e.Cause)
			ce.Ph = "X"
			dur := usOf(int64(e.Dur))
			ce.Dur = &dur
			if e.Wait > 0 {
				args["wait_ns"] = int64(e.Wait)
			}
		case earth.EvUtilSample:
			ce.Name = fmt.Sprintf("util[n%d]", int(e.Node))
			ce.Ph = "C"
			ce.Tid = 0
			delete(args, "peer")
			args["busy_ns"] = int64(e.Dur)
		default:
			ce.Name = e.Kind.String()
			ce.Ph = "i"
			ce.S = "t"
			if e.Dur > 0 {
				args["latency_ns"] = int64(e.Dur)
			}
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out = append(out, ce)
	}
	return json.Marshal(struct {
		TraceEvents     []refChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}{out, "ms"})
}

// encoderTable is one event per combination of kind (two undefined ones
// included), peer, payload, duration, wait and time. No int64 of
// nanoseconds reaches json's exponent notation (below 1e-6 µs or from
// 1e21 µs); the extreme times are here to show it.
func encoderTable() []earth.Event {
	times := []sim.Time{0, 1, 999, 1000, 1001, 123456789, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, -1, -1500}
	var table []earth.Event
	for k := 0; k < earth.KindCount+2; k++ {
		for _, peer := range []earth.NodeID{earth.NoPeer, 2} {
			for _, bytes := range []int{0, 1} {
				for _, dur := range []sim.Time{0, 1, 1500} {
					for _, wait := range []sim.Time{0, 1} {
						for ti, at := range times {
							table = append(table, earth.Event{Time: at, Dur: dur, Wait: wait, Node: earth.NodeID(ti % 3),
								Peer: peer, Bytes: bytes, Kind: earth.EventKind(k), Cause: earth.Cause((k + ti) % 15)})
						}
					}
				}
			}
		}
	}
	return table
}

// TestChromeEncoderMatchesReference holds the streaming encoder to the
// reference byte for byte: every event kind (and two undefined ones), with
// and without a peer, payload, duration and wait, at the times where the
// microsecond form changes shape — whole, fractional, the largest integer
// a float64 holds exactly, both ends of int64 — in streams long enough
// for flows to pair, miss and queue up; and the two runs whose exports are
// pinned.
func TestChromeEncoderMatchesReference(t *testing.T) {
	check := func(t *testing.T, events []earth.Event) {
		t.Helper()
		got, err := ChromeTrace(events)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refChromeTrace(events)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(i-80, 0)
			t.Fatalf("encoders differ at byte %d:\n got …%s\nwant …%s", i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
		}
	}

	t.Run("table", func(t *testing.T) { check(t, encoderTable()) })
	t.Run("empty", func(t *testing.T) { check(t, nil) })
	t.Run("clean run", func(t *testing.T) { check(t, runTracedSim(t).Events()) })
	t.Run("crash run", func(t *testing.T) { check(t, runCrashTracedSim(t).Events()) })
}

// failAfter is a writer that takes k bytes and then fails.
type failAfter struct{ k int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.k {
		n := w.k
		w.k = 0
		return n, errDiskFull
	}
	w.k -= len(p)
	return len(p), nil
}

// TestWriteChromeTraceReportsWriteError: the document goes out through a
// buffer, so the writer's error surfaces at a flush — wherever in the
// document the writer gives up, the first buffer, the last or the final
// newline, WriteChromeTrace must return it.
func TestWriteChromeTraceReportsWriteError(t *testing.T) {
	rec := NewRecorder()
	rec.EventBatch(encoderTable()) // several buffers' worth
	var whole bytes.Buffer
	if err := rec.WriteChromeTrace(&whole); err != nil {
		t.Fatal(err)
	}
	doc, err := ChromeTrace(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), append(doc, '\n')) {
		t.Fatal("WriteChromeTrace is not ChromeTrace plus a newline")
	}
	n := whole.Len()
	for _, k := range []int{0, 1, 64 << 10, n / 2, n - 2, n - 1} {
		if err := rec.WriteChromeTrace(&failAfter{k: k}); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d of %d bytes: WriteChromeTrace returned %v", k, n, err)
		}
	}
	if err := rec.WriteChromeTrace(&failAfter{k: n}); err != nil {
		t.Errorf("writer with room for exactly the document: %v", err)
	}
}
