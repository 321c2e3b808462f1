package obs

import (
	"bufio"
	"bytes"
	"io"
	"strconv"

	"earth/internal/earth"
)

// This file exports a recorded event stream in the Chrome trace-event
// JSON format (the "JSON Object Format" with a traceEvents array), which
// Perfetto and chrome://tracing open directly. The mapping:
//
//   - one lane per node: pid 0, tid = node id, named via metadata events;
//   - thread and handler executions become complete ("X") events with
//     their virtual/wall duration;
//   - communication legs, sync signals, token spawns and steal protocol
//     steps become instant ("i") events carrying peer/bytes/latency args;
//   - utilisation samples become counter ("C") events, one counter per
//     node;
//   - causal edges become flow events ("s" start / "f" finish sharing an
//     id), so Perfetto draws arrows from each split-phase send to its
//     deliver leg, from a token's spawn to its run, from its placement
//     to its arrival, and from a steal request to its grant. Pairing is
//     FIFO per (edge class, endpoints), matching the engines' in-order
//     delivery along a link.
//
// Under simrt the stream and therefore the serialised bytes are fully
// deterministic for a given Config, so a committed trace doubles as a
// simulator regression artifact.
//
// The document is written as it is produced, by hand: the bytes are those
// encoding/json gives for a struct per entry (fields in the order name,
// cat, ph, ts, dur, pid, tid, s, id, bp, args; empty ones but ts, pid and
// tid omitted) with a map for args (keys sorted), which is how it was
// first written and what the test file keeps as the reference encoder.

// flowClass is one kind of causal arrow: a set of FIFO queues and the name
// its entries carry.
type flowClass uint8

const (
	flowGet flowClass = iota
	flowPut
	flowInvoke
	flowToken
	flowPlace
	flowSteal
)

var flowNames = [...]string{
	flowGet:    "get",
	flowPut:    "put",
	flowInvoke: "invoke",
	flowToken:  "token",
	flowPlace:  "token.place",
	flowSteal:  "steal",
}

// flowKey identifies one FIFO queue of in-flight causal edges.
type flowKey struct {
	class flowClass
	a, b  earth.NodeID
}

// chromeWriter is the state of one export: the output, the flow ids
// handed out so far and the open flows. The map is only ever indexed,
// never ranged over, so output order stays a pure function of the event
// stream.
type chromeWriter struct {
	w      *bufio.Writer
	next   int64
	queues map[flowKey][]int64
}

// start opens a new flow on key and returns its id.
func (c *chromeWriter) start(key flowKey) int64 {
	c.next++
	c.queues[key] = append(c.queues[key], c.next)
	return c.next
}

// finish pops the oldest open flow on key, or 0 when none is in flight
// (e.g. a token that was stolen instead of running where it was pooled).
func (c *chromeWriter) finish(key flowKey) int64 {
	q := c.queues[key]
	if len(q) == 0 {
		return 0
	}
	c.queues[key] = q[1:]
	return q[0]
}

// appendUs appends ns as the microsecond number encoding/json prints for
// float64(ns)/1e3. json switches to exponent notation below 1e-6 and from
// 1e21, which no int64 of nanoseconds reaches (1e-3 … 9.3e15), so the
// plain shortest form is always the one it picks.
func appendUs(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e3, 'f', -1, 64)
}

// entry appends the fields every traceEvents entry starts with, up to and
// including tid, preceded by the separating comma.
func entry(b []byte, name, cat, ph string, ts, tid int64) []byte {
	b = append(b, `,{"name":"`...)
	b = append(b, name...)
	if cat != "" {
		b = append(b, `","cat":"`...)
		b = append(b, cat...)
	}
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = append(b, `","ts":`...)
	b = appendUs(b, ts)
	b = append(b, `,"pid":0,"tid":`...)
	return strconv.AppendInt(b, tid, 10)
}

// flow writes one leg of a causal arrow ahead of the event it annotates;
// id 0 (an unmatched finish) writes nothing.
func (c *chromeWriter) flow(ph string, class flowClass, id int64, e *earth.Event) {
	if id == 0 {
		return
	}
	b := entry(c.w.AvailableBuffer(), flowNames[class], "flow", ph, int64(e.Time), int64(e.Node))
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, id, 10)
	if ph == "f" {
		b = append(b, `,"bp":"e"`...)
	}
	b = append(b, '}')
	c.w.Write(b) // a failed write is kept by the bufio.Writer and returned by Flush
}

// flows writes the arrow legs e opens or closes.
func (c *chromeWriter) flows(e *earth.Event) {
	n, p := e.Node, e.Peer
	switch e.Kind {
	case earth.EvGetSend:
		c.flow("s", flowGet, c.start(flowKey{flowGet, n, p}), e)
	case earth.EvGetDeliver:
		c.flow("f", flowGet, c.finish(flowKey{flowGet, n, p}), e)
	case earth.EvPutSend:
		c.flow("s", flowPut, c.start(flowKey{flowPut, n, p}), e)
	case earth.EvPutDeliver:
		c.flow("f", flowPut, c.finish(flowKey{flowPut, p, n}), e)
	case earth.EvInvokeSend:
		c.flow("s", flowInvoke, c.start(flowKey{flowInvoke, n, p}), e)
	case earth.EvInvokeDeliver:
		c.flow("f", flowInvoke, c.finish(flowKey{flowInvoke, p, n}), e)
	case earth.EvTokenSpawn:
		// spawn -> run, FIFO on the node the token is destined for
		// (its own pool unless the balancer placed it remotely).
		dst := n
		if p != earth.NoPeer {
			dst = p
			// Placed tokens additionally get a placement-transit arrow.
			c.flow("s", flowPlace, c.start(flowKey{flowPlace, n, p}), e)
		}
		c.flow("s", flowToken, c.start(flowKey{flowToken, dst, dst}), e)
	case earth.EvTokenDeliver:
		c.flow("f", flowPlace, c.finish(flowKey{flowPlace, p, n}), e)
	case earth.EvThreadRun:
		if e.Cause == earth.CauseToken {
			c.flow("f", flowToken, c.finish(flowKey{flowToken, n, n}), e)
		}
	case earth.EvStealRequest:
		c.flow("s", flowSteal, c.start(flowKey{flowSteal, n, p}), e)
	case earth.EvStealGrant:
		c.flow("f", flowSteal, c.finish(flowKey{flowSteal, n, p}), e)
	}
}

// event writes e's own entry. Its args appear in sorted key order:
// busy_ns, bytes, latency_ns, peer, wait_ns.
func (c *chromeWriter) event(e *earth.Event) {
	b := c.w.AvailableBuffer()
	// arg appends one integer member of the args object, opening the
	// object at the first.
	args := false
	arg := func(key string, v int64) {
		if args {
			b = append(b, `,"`...)
		} else {
			b = append(b, `,"args":{"`...)
			args = true
		}
		b = append(b, key...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, v, 10)
	}
	switch e.Kind {
	case earth.EvThreadRun, earth.EvHandlerRun:
		b = append(b, `,{"name":"`...)
		b = append(b, e.Kind.String()...)
		b = append(b, ':')
		b = append(b, e.Cause.String()...)
		b = append(b, `","ph":"X","ts":`...)
		b = appendUs(b, int64(e.Time))
		b = append(b, `,"dur":`...)
		b = appendUs(b, int64(e.Dur))
		b = append(b, `,"pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(e.Node), 10)
		if e.Bytes > 0 {
			arg("bytes", int64(e.Bytes))
		}
		if e.Peer != earth.NoPeer {
			arg("peer", int64(e.Peer))
		}
		if e.Wait > 0 {
			arg("wait_ns", int64(e.Wait))
		}
	case earth.EvUtilSample:
		b = append(b, `,{"name":"util[n`...)
		b = strconv.AppendInt(b, int64(e.Node), 10)
		b = append(b, `]","ph":"C","ts":`...)
		b = appendUs(b, int64(e.Time))
		b = append(b, `,"pid":0,"tid":0`...)
		arg("busy_ns", int64(e.Dur))
		if e.Bytes > 0 {
			arg("bytes", int64(e.Bytes))
		}
	default:
		b = entry(b, e.Kind.String(), "", "i", int64(e.Time), int64(e.Node))
		b = append(b, `,"s":"t"`...)
		if e.Bytes > 0 {
			arg("bytes", int64(e.Bytes))
		}
		if e.Dur > 0 {
			arg("latency_ns", int64(e.Dur))
		}
		if e.Peer != earth.NoPeer {
			arg("peer", int64(e.Peer))
		}
	}
	if args {
		b = append(b, '}')
	}
	b = append(b, '}')
	c.w.Write(b)
}

// writeChromeTrace streams events (in emission order) to w as a Chrome
// trace-event JSON document. Errors stay in w until its Flush.
func writeChromeTrace(w *bufio.Writer, events []earth.Event) {
	nodes := earth.NodeID(0)
	for i := range events {
		e := &events[i]
		nodes = max(nodes, e.Node+1)
		if e.Peer != earth.NoPeer {
			nodes = max(nodes, e.Peer+1)
		}
	}
	c := chromeWriter{w: w, queues: map[flowKey][]int64{}}
	w.WriteString(`{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"earth"}}`)
	for i := earth.NodeID(0); i < nodes; i++ {
		b := entry(w.AvailableBuffer(), "thread_name", "", "M", 0, int64(i))
		b = append(b, `,"args":{"name":"node `...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `"}}`...)
		w.Write(b)
	}
	for i := range events {
		c.flows(&events[i])
		c.event(&events[i])
	}
	w.WriteString(`],"displayTimeUnit":"ms"}`)
}

// ChromeTrace serialises events (in emission order) as a Chrome
// trace-event JSON document.
func ChromeTrace(events []earth.Event) ([]byte, error) {
	var doc bytes.Buffer
	w := bufio.NewWriter(&doc)
	writeChromeTrace(w, events)
	err := w.Flush()
	return doc.Bytes(), err
}

// WriteChromeTrace writes the recorded stream as a Chrome trace-event
// JSON document, ready for Perfetto / chrome://tracing. The document is
// streamed to w through a buffer, never held whole; the error is the first
// one w returned.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10) // ~500 entries a write; w is usually a file
	writeChromeTrace(bw, r.Events())
	bw.WriteByte('\n')
	return bw.Flush()
}
