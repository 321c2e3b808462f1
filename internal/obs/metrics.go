package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"earth/internal/earth"
	"earth/internal/sim"
)

// utilSample is one node's busy time in one sampling window.
type utilSample struct {
	t    sim.Time // window end
	node earth.NodeID
	busy sim.Time
}

// Metrics is a Tracer that aggregates the event stream into per-operation
// latency and size histograms plus a utilisation timeline, without
// retaining individual events. It is safe for concurrent use.
type Metrics struct {
	mu     sync.Mutex
	counts [earth.KindCount]uint64
	nodes  int // highest node id seen + 1

	threadRun     Histogram // EvThreadRun duration
	handlerRun    Histogram // EvHandlerRun duration
	dispatchDelay Histogram // EvThreadRun ready-to-dispatch wait, all causes
	syncDispatch  Histogram // the same wait for sync-enabled threads only
	getRTT        Histogram // EvGetDeliver round trip
	putLatency    Histogram // EvPutDeliver one-way latency
	invokeLatency Histogram // EvInvokeDeliver latency
	stealRTT      Histogram // EvStealGrant round trip
	msgBytes      Histogram // payload of every send-side event
	batchSize     Histogram // EvBatchFlush messages per coalesced batch
	batchBytes    Histogram // EvBatchFlush summed payload per batch

	util []utilSample
}

var _ earth.Tracer = (*Metrics)(nil)

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.threadRun = Histogram{Name: "thread.run", Unit: "ns"}
	m.handlerRun = Histogram{Name: "handler.run", Unit: "ns"}
	m.dispatchDelay = Histogram{Name: "dispatch.delay", Unit: "ns"}
	m.syncDispatch = Histogram{Name: "sync.dispatch", Unit: "ns"}
	m.getRTT = Histogram{Name: "get.rtt", Unit: "ns"}
	m.putLatency = Histogram{Name: "put.latency", Unit: "ns"}
	m.invokeLatency = Histogram{Name: "invoke.latency", Unit: "ns"}
	m.stealRTT = Histogram{Name: "steal.rtt", Unit: "ns"}
	m.msgBytes = Histogram{Name: "msg.bytes", Unit: "bytes"}
	m.batchSize = Histogram{Name: "batch.size", Unit: "msgs"}
	m.batchBytes = Histogram{Name: "batch.bytes", Unit: "bytes"}
	return m
}

// Event aggregates one runtime event.
func (m *Metrics) Event(e earth.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(e.Kind) < len(m.counts) {
		m.counts[e.Kind]++
	}
	if int(e.Node) >= m.nodes {
		m.nodes = int(e.Node) + 1
	}
	switch e.Kind {
	case earth.EvThreadRun:
		m.threadRun.Add(int64(e.Dur))
		m.dispatchDelay.Add(int64(e.Wait))
		if e.Cause == earth.CauseSync {
			m.syncDispatch.Add(int64(e.Wait))
		}
	case earth.EvHandlerRun:
		m.handlerRun.Add(int64(e.Dur))
	case earth.EvGetSend, earth.EvPutSend, earth.EvInvokeSend, earth.EvPostSend:
		m.msgBytes.Add(int64(e.Bytes))
	case earth.EvGetDeliver:
		m.getRTT.Add(int64(e.Dur))
	case earth.EvPutDeliver:
		m.putLatency.Add(int64(e.Dur))
	case earth.EvInvokeDeliver:
		m.invokeLatency.Add(int64(e.Dur))
	case earth.EvStealGrant:
		m.stealRTT.Add(int64(e.Dur))
	case earth.EvBatchFlush:
		// Wait carries the batch's message count on flush events.
		m.batchSize.Add(int64(e.Wait))
		m.batchBytes.Add(int64(e.Bytes))
	case earth.EvUtilSample:
		m.util = append(m.util, utilSample{t: e.Time, node: e.Node, busy: e.Dur})
	}
}

// histograms lists the collectors in render order.
func (m *Metrics) histograms() []*Histogram {
	return []*Histogram{
		&m.threadRun, &m.handlerRun, &m.dispatchDelay, &m.syncDispatch,
		&m.getRTT, &m.putLatency, &m.invokeLatency, &m.stealRTT, &m.msgBytes,
		&m.batchSize, &m.batchBytes,
	}
}

// utilWindows folds the per-node samples into one mean busy fraction per
// window (earth.BusyFraction clamps each node's share), returning the
// window width and the ordered fractions.
func (m *Metrics) utilWindows() (sim.Time, []float64) {
	if len(m.util) == 0 {
		return 0, nil
	}
	// Samples arrive window by window; the first window ends at one
	// period, so its end time is the period.
	period := m.util[0].t
	if period <= 0 {
		return 0, nil
	}
	type win struct {
		sum float64
		n   int
	}
	byIndex := map[int]*win{}
	maxIdx := 0
	for _, s := range m.util {
		i := int(s.t/period) - 1
		if i < 0 {
			continue
		}
		w := byIndex[i]
		if w == nil {
			w = &win{}
			byIndex[i] = w
		}
		w.sum += earth.BusyFraction(s.busy, period)
		w.n++
		if i > maxIdx {
			maxIdx = i
		}
	}
	out := make([]float64, maxIdx+1)
	for i, w := range byIndex {
		if w.n > 0 {
			out[i] = w.sum / float64(w.n)
		}
	}
	return period, out
}

// Render draws the counters, every non-empty histogram and, when
// utilisation samples were collected, a machine-utilisation timeline.
func (m *Metrics) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	var total uint64
	for _, c := range m.counts {
		total += c
	}
	fmt.Fprintf(&b, "-- metrics: %d events over %d nodes --\n", total, m.nodes)
	b.WriteString("counts:")
	for k := 0; k < earth.KindCount; k++ {
		if m.counts[k] > 0 {
			fmt.Fprintf(&b, " %s=%d", earth.EventKind(k), m.counts[k])
		}
	}
	b.WriteString("\n")
	for _, h := range m.histograms() {
		if h.N() > 0 {
			b.WriteString(h.Render())
		}
	}
	if period, wins := m.utilWindows(); len(wins) > 0 {
		// Merge windows so the timeline stays readable for long runs.
		const maxRows = 50
		merge := (len(wins) + maxRows - 1) / maxRows
		fmt.Fprintf(&b, "utilisation timeline (window %v):\n", period*sim.Time(merge))
		const barWidth = 40
		for i := 0; i < len(wins); i += merge {
			sum, n := 0.0, 0
			for j := i; j < i+merge && j < len(wins); j++ {
				sum += wins[j]
				n++
			}
			f := sum / float64(n)
			fill := int(f*barWidth + 0.5)
			if fill > barWidth {
				fill = barWidth
			}
			fmt.Fprintf(&b, "  %10v |%-*s| %3.0f%%\n",
				sim.Time(i)*period, barWidth, strings.Repeat("#", fill), 100*f)
		}
	}
	return b.String()
}

// MarshalJSON exports counters, histograms and the utilisation timeline.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := map[string]uint64{}
	for k := 0; k < earth.KindCount; k++ {
		if m.counts[k] > 0 {
			counts[earth.EventKind(k).String()] = m.counts[k]
		}
	}
	var hists []*Histogram
	for _, h := range m.histograms() {
		if h.N() > 0 {
			hists = append(hists, h)
		}
	}
	period, wins := m.utilWindows()
	return json.Marshal(struct {
		Nodes        int               `json:"nodes"`
		Counts       map[string]uint64 `json:"counts"`
		Histograms   []*Histogram      `json:"histograms"`
		UtilPeriodNS sim.Time          `json:"util_period_ns,omitempty"`
		Utilisation  []float64         `json:"utilisation,omitempty"`
	}{m.nodes, counts, hists, period, wins})
}
