// Package critpath reconstructs the causal structure of a run from its
// earth.Tracer event stream and attributes every nanosecond of makespan
// to one of five categories: compute, communication, scheduling/steal,
// retry/recovery, and idle.
//
// The paper's central methodological device is exactly this accounting:
// USE efficiency and the ratio of compute grain to communication and
// scheduling overhead decide every speedup curve in Sections 3-5. The
// PR 1 event stream records the raw actions; this package turns them
// into the paper's overhead ratios plus a critical-path decomposition
// the paper could not measure on real hardware.
//
// Two complementary views are produced from one pass over the events:
//
//   - A per-node time partition: each node's [0, makespan] is split into
//     the five categories using the run/wait intervals of its threads
//     and handlers, the enabling cause of each dispatch, and the
//     recovery markers. The per-node sums equal the makespan exactly
//     (all arithmetic is int64 virtual nanoseconds), so the fractions
//     sum to 1 up to float rounding.
//
//   - The critical path: a backward walk from the last activity to time
//     zero that follows each dispatch to its enabling action (sync-slot
//     signal, INVOKE/token transit leg, steal round trip, post send,
//     crash re-dispatch) and hops between nodes along those edges. The
//     emitted segments partition [0, makespan]; their category totals
//     say what the span itself was spent on — the quantity the
//     Many-core Machine Model frames as the target of overhead
//     minimisation.
//
// Under simrt the event stream is deterministic for a given Config, and
// every computation here is order-stable (sorted slices, integer sums),
// so the analysis — including its rendered text — is byte-identical
// across same-seed runs. The package is on detlint's patrol list.
package critpath

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"earth/internal/earth"
	"earth/internal/sim"
)

// Category is one of the five destinations makespan time is attributed to.
type Category uint8

const (
	// Compute is time inside thread and handler bodies.
	Compute Category = iota
	// Comm is time waiting on communication: sync-signal transit,
	// split-phase INVOKE/token placement legs, post delivery.
	Comm
	// Sched is scheduling overhead: ready-queue dispatch delay, steal
	// round trips, waits for locally pooled tokens.
	Sched
	// Recovery is fault handling: retry/timeout stalls, crash detection,
	// frame replay and token re-dispatch, and a dead node's remaining
	// lifetime.
	Recovery
	// Idle is starvation: no work and nothing in flight toward the node.
	Idle

	numCategories
)

// NumCategories is the number of attribution categories.
const NumCategories = int(numCategories)

var categoryNames = [numCategories]string{
	Compute:  "compute",
	Comm:     "comm",
	Sched:    "sched",
	Recovery: "recovery",
	Idle:     "idle",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "unknown"
}

// MarshalText renders the category name into JSON output.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Breakdown is virtual time per category.
type Breakdown [NumCategories]sim.Time

// Total is the sum over categories.
func (b Breakdown) Total() sim.Time {
	var t sim.Time
	for _, v := range b {
		t += v
	}
	return t
}

// Fractions divides each category by the total. All zero when empty.
func (b Breakdown) Fractions() [NumCategories]float64 {
	var f [NumCategories]float64
	tot := b.Total()
	if tot == 0 {
		return f
	}
	for i, v := range b {
		f[i] = float64(v) / float64(tot)
	}
	return f
}

func (b Breakdown) add(c Category, d sim.Time) Breakdown {
	if d > 0 {
		b[c] += d
	}
	return b
}

// Segment is one stretch of the critical path: on Node, [Start, End)
// was spent on Cat. Segments partition [0, makespan].
type Segment struct {
	Start sim.Time     `json:"start"`
	End   sim.Time     `json:"end"`
	Node  earth.NodeID `json:"node"`
	Cat   Category     `json:"category"`
	Label string       `json:"label"`
}

// Dur is the segment length.
func (s Segment) Dur() sim.Time { return s.End - s.Start }

// Analysis is the result of one pass over a run's events.
type Analysis struct {
	// Makespan is the run's elapsed virtual time.
	Makespan sim.Time `json:"makespan"`
	// Nodes holds one Breakdown per node; each sums exactly to Makespan.
	Nodes []Breakdown `json:"nodes"`
	// Total is the sum of Nodes: machine-seconds per category.
	Total Breakdown `json:"total"`
	// Path is the critical path, earliest segment first.
	Path []Segment `json:"path"`
	// PathBreakdown is the category totals along Path; it sums to
	// Makespan.
	PathBreakdown Breakdown `json:"pathBreakdown"`
}

// activity is one executed thread or handler body.
type activity struct {
	start, end sim.Time
	ready      sim.Time // start minus the recorded dispatch wait
	cause      earth.Cause
	handler    bool
}

// ival is a merged busy interval; first indexes the earliest activity
// opening it, whose cause classifies the gap before it.
type ival struct {
	s, e  sim.Time
	first int
}

// nodeIdx is the per-node event index the analysis walks.
type nodeIdx struct {
	acts   []activity // sorted by (start, end)
	maxEnd []sim.Time // prefix max of acts[i].end
	busy   []ival     // merged busy intervals

	// ev[k] is the table of the caller's kind-k events indexed on this
	// node, sorted by Time, for each kind the walk looks up (see walked):
	// the events accounted to the node, except that a post (EvPostSend,
	// whose Event.Node is the sender) is indexed on its target.
	ev [earth.KindCount][]*earth.Event

	recovery []sim.Time // recovery-class marker instants on this node
	deadAt   sim.Time   // crash instant, or -1 when the node survives
}

// Analyze attributes a run's makespan from its event stream. nodes is
// the machine size and makespan the run's elapsed time (Stats.Elapsed);
// events outside [0, nodes) lanes or beyond the makespan are clipped.
func Analyze(events []earth.Event, nodes int, makespan sim.Time) *Analysis {
	if nodes < 1 {
		nodes = 1
	}
	if makespan < 0 {
		makespan = 0
	}
	idx := buildIndex(events, nodes, makespan)

	a := &Analysis{Makespan: makespan, Nodes: make([]Breakdown, nodes)}
	for n := range idx {
		b := attributeNode(idx[n], makespan)
		a.Nodes[n] = b
		for c, v := range b {
			a.Total[c] += v
		}
	}
	a.Path = walk(idx, nodes, makespan)
	for _, s := range a.Path {
		a.PathBreakdown[s.Cat] += s.Dur()
	}
	return a
}

// walked marks the event kinds the backward walk looks up by time: each
// node keeps a table of each (nodeIdx.ev).
var walked = [earth.KindCount]bool{
	earth.EvSyncSignal:     true,
	earth.EvInvokeDeliver:  true,
	earth.EvTokenDeliver:   true,
	earth.EvStealGrant:     true,
	earth.EvWorkReassigned: true,
	earth.EvPostSend:       true,
}

// buildIndex sorts the stream into per-node lookup tables. Input order
// is irrelevant (livert's stream arrives in goroutine-race order); every
// table is stably sorted by Time so the result is a pure function of the
// event multiset. The tables point into events rather than copy them, and
// one counting pass gives each its exact size.
func buildIndex(events []earth.Event, nodes int, makespan sim.Time) []*nodeIdx {
	inRange := func(id earth.NodeID) bool { return id >= 0 && int(id) < nodes }
	// indexedOn is the node e is counted and tabled on, or -1.
	indexedOn := func(e *earth.Event) earth.NodeID {
		n := e.Node
		if e.Kind == earth.EvPostSend {
			n = e.Peer
		}
		if !inRange(e.Node) || !inRange(n) || int(e.Kind) >= earth.KindCount {
			return -1
		}
		return n
	}
	// count[n][k] is the number of kind-k events indexed on node n.
	count := make([][earth.KindCount]int, nodes)
	for i := range events {
		if n := indexedOn(&events[i]); n >= 0 {
			count[n][events[i].Kind]++
		}
	}
	idx := make([]*nodeIdx, nodes)
	for n := range idx {
		c := &count[n]
		ni := &nodeIdx{
			acts:   make([]activity, 0, c[earth.EvThreadRun]+c[earth.EvHandlerRun]),
			deadAt: -1,
		}
		for k, w := range walked {
			if w {
				ni.ev[k] = make([]*earth.Event, 0, c[k])
			}
		}
		idx[n] = ni
	}
	for i := range events {
		e := &events[i]
		if n := indexedOn(e); n >= 0 && walked[e.Kind] {
			t := &idx[n].ev[e.Kind]
			*t = append(*t, e)
		}
		if !inRange(e.Node) {
			continue
		}
		ni := idx[e.Node]
		switch e.Kind {
		case earth.EvThreadRun, earth.EvHandlerRun:
			start, end := e.Time, e.Time+e.Dur
			if start > makespan {
				start = makespan
			}
			if end > makespan {
				end = makespan
			}
			ready := start - e.Wait
			if ready < 0 {
				ready = 0
			}
			ni.acts = append(ni.acts, activity{start: start, end: end, ready: ready,
				cause: e.Cause, handler: e.Kind == earth.EvHandlerRun})
		case earth.EvWorkReassigned, earth.EvTimedOut, earth.EvRetry, earth.EvRecovered,
			earth.EvFrameReplayed, earth.EvPartitionFence, earth.EvFenced, earth.EvRejoined, earth.EvCorrupt,
			earth.EvPartitionStart, earth.EvPartitionHeal:
			// Partition-protocol work counts as recovery overhead like the
			// drop/crash machinery. A fenced node is never marked dead —
			// it parks and rejoins, so its clock keeps running.
			ni.recovery = append(ni.recovery, e.Time)
		case earth.EvNodeDown:
			// Detection and adoption work lands on the survivor; the dead
			// node's clock stops Dur (the lease) before the detection.
			ni.recovery = append(ni.recovery, e.Time)
			if inRange(e.Peer) {
				dead := e.Time - e.Dur
				if dead < 0 {
					dead = 0
				}
				if prev := idx[e.Peer].deadAt; prev < 0 || dead < prev {
					idx[e.Peer].deadAt = dead
				}
			}
		}
	}
	// A simrt stream arrives in canonical order, which leaves every table
	// sorted already; the stable sorts are for livert's.
	byStartEnd := func(a, b activity) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end))
	}
	byTime := func(a, b *earth.Event) int { return cmp.Compare(a.Time, b.Time) }
	for _, ni := range idx {
		if !slices.IsSortedFunc(ni.acts, byStartEnd) {
			slices.SortStableFunc(ni.acts, byStartEnd)
		}
		ni.maxEnd = make([]sim.Time, len(ni.acts))
		for i, a := range ni.acts {
			ni.maxEnd[i] = a.end
			if i > 0 && ni.maxEnd[i-1] > a.end {
				ni.maxEnd[i] = ni.maxEnd[i-1]
			}
			if len(ni.busy) > 0 && a.start <= ni.busy[len(ni.busy)-1].e {
				if a.end > ni.busy[len(ni.busy)-1].e {
					ni.busy[len(ni.busy)-1].e = a.end
				}
			} else {
				ni.busy = append(ni.busy, ival{s: a.start, e: a.end, first: i})
			}
		}
		for _, evs := range ni.ev {
			if !slices.IsSortedFunc(evs, byTime) {
				slices.SortStableFunc(evs, byTime)
			}
		}
		if !slices.IsSorted(ni.recovery) {
			slices.Sort(ni.recovery)
		}
	}
	return idx
}

// waitCategory classifies the stretch between a dispatch becoming
// pending (its enabling action issued elsewhere) and becoming ready.
func waitCategory(c earth.Cause) Category {
	switch c {
	case earth.CauseSync, earth.CauseInvoke, earth.CauseHandler:
		return Comm
	case earth.CauseSteal, earth.CauseToken:
		return Sched
	default: // CauseSpawn: nothing was in flight; the node was starved.
		return Idle
	}
}

// hasRecoveryIn reports a recovery marker in [lo, hi]. The high bound is
// inclusive: a re-dispatch marker coincides exactly with the instant the
// recovered work becomes ready.
func (ni *nodeIdx) hasRecoveryIn(lo, hi sim.Time) bool {
	i := sort.Search(len(ni.recovery), func(i int) bool { return ni.recovery[i] >= lo })
	return i < len(ni.recovery) && ni.recovery[i] <= hi
}

// attributeNode partitions one node's [0, makespan] into the five
// categories. The pieces — busy intervals, the gaps before them split at
// each first activity's ready instant, the post-crash dead time and the
// trailing idle — are disjoint and cover the whole range, so the sum is
// exactly the makespan.
func attributeNode(ni *nodeIdx, makespan sim.Time) Breakdown {
	var b Breakdown
	horizon := makespan
	if ni.deadAt >= 0 && ni.deadAt < makespan {
		// A crashed node's remaining lifetime is the price of the failure:
		// charge it to recovery, like the survivors' replay work.
		b[Recovery] += makespan - ni.deadAt
		horizon = ni.deadAt
	}
	cursor := sim.Time(0)
	for _, iv := range ni.busy {
		s, e := iv.s, iv.e
		if s > horizon {
			s = horizon
		}
		if e > horizon {
			e = horizon
		}
		if s > cursor {
			b = classifyGap(b, ni, cursor, s, ni.acts[iv.first])
		}
		if e > s {
			b[Compute] += e - s
		}
		if e > cursor {
			cursor = e
		}
	}
	if horizon > cursor {
		b[Idle] += horizon - cursor
	}
	return b
}

// classifyGap splits the idle stretch [g0, g1) that ends at activity a's
// dispatch: [ready, g1) is queue/dispatch delay (Sched), and [g0, ready)
// is attributed to whatever a was waiting for — overridden to Recovery
// when a retry/replay marker falls inside it.
func classifyGap(b Breakdown, ni *nodeIdx, g0, g1 sim.Time, a activity) Breakdown {
	ready := a.ready
	if ready < g0 {
		ready = g0
	}
	if ready > g1 {
		ready = g1
	}
	b = b.add(Sched, g1-ready)
	if ready > g0 {
		cat := waitCategory(a.cause)
		if ni.hasRecoveryIn(g0, ready) {
			cat = Recovery
		}
		b = b.add(cat, ready-g0)
	}
	return b
}

// latestBefore returns the last event in evs with Time <= t, or nil.
func latestBefore(evs []*earth.Event, t sim.Time) *earth.Event {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Time > t })
	if i == 0 {
		return nil
	}
	return evs[i-1]
}

// locate finds, on ni, the latest activity covering t (start < t <= end),
// or failing that the latest end before t. It returns (activity, covered)
// or ok=false when nothing precedes t.
func (ni *nodeIdx) locate(t sim.Time) (a activity, topEnd sim.Time, covered, ok bool) {
	j := sort.Search(len(ni.acts), func(i int) bool { return ni.acts[i].start >= t }) - 1
	if j < 0 {
		return activity{}, 0, false, false
	}
	if ni.maxEnd[j] >= t {
		for i := j; i >= 0; i-- {
			if ni.acts[i].end >= t {
				return ni.acts[i], ni.acts[i].end, true, true
			}
		}
	}
	return activity{}, ni.maxEnd[j], false, true
}

// walkBudget bounds the backward walk; each iteration strictly lowers
// the frontier, so this is a safety net, not a semantic limit.
func walkBudget(idx []*nodeIdx) int {
	n := 1024
	for _, ni := range idx {
		n += 4 * len(ni.acts)
	}
	return n
}

// walk traces the critical path backward from the latest activity end to
// time zero, following each dispatch to its enabling action and hopping
// nodes along communication, steal and recovery edges. The returned
// segments partition [0, makespan], earliest first.
func walk(idx []*nodeIdx, nodes int, makespan sim.Time) []Segment {
	if makespan == 0 {
		return nil
	}
	// Anchor: the activity finishing last (ties: lowest node).
	anchor, anchorEnd := -1, sim.Time(-1)
	for n, ni := range idx {
		if len(ni.acts) > 0 && ni.maxEnd[len(ni.acts)-1] > anchorEnd {
			anchor, anchorEnd = n, ni.maxEnd[len(ni.acts)-1]
		}
	}
	if anchor < 0 {
		return []Segment{{Start: 0, End: makespan, Node: 0, Cat: Idle, Label: "no recorded work"}}
	}

	var segs []Segment
	cur := makespan
	node := earth.NodeID(anchor)
	emit := func(from sim.Time, n earth.NodeID, cat Category, label string) {
		if from < 0 {
			from = 0
		}
		if from >= cur {
			return
		}
		segs = append(segs, Segment{Start: from, End: cur, Node: n, Cat: cat, Label: label})
		cur = from
	}
	inRange := func(id earth.NodeID) bool { return id >= 0 && int(id) < nodes }

	emit(anchorEnd, node, Idle, "post-completion drain")
	pendingCat, pendingLabel := Idle, "starved"
	for budget := walkBudget(idx); cur > 0 && budget > 0; budget-- {
		ni := idx[node]
		a, topEnd, covered, ok := ni.locate(cur)
		if !ok {
			emit(0, node, pendingCat, pendingLabel)
			break
		}
		if !covered {
			// The node was not executing at cur: the stretch back to its
			// previous completion is whatever the walk was waiting for.
			emit(topEnd, node, pendingCat, pendingLabel)
			pendingCat, pendingLabel = Idle, "starved"
			continue
		}
		kind := "thread"
		if a.handler {
			kind = "handler"
		}
		emit(a.start, node, Compute, kind+":"+a.cause.String())
		emit(a.ready, node, Sched, "dispatch queue")
		pendingCat, pendingLabel = Idle, "starved"

		switch a.cause {
		case earth.CauseSync:
			if e := latestBefore(ni.ev[earth.EvSyncSignal], cur); e != nil {
				// The signal instant is known; its transit (the stretch on
				// the signalling node before it) is labelled when the walk
				// lands in that node's gap.
				emit(e.Time, node, Comm, "sync signal")
				if inRange(e.Peer) && e.Peer != node {
					node = e.Peer
					pendingCat, pendingLabel = Comm, "sync transit"
				}
				continue
			}
		case earth.CauseInvoke:
			if e := latestBefore(ni.ev[earth.EvInvokeDeliver], cur); e != nil {
				emit(e.Time-e.Dur, node, Comm, fmt.Sprintf("invoke transit from node %d", e.Peer))
				if inRange(e.Peer) {
					node = e.Peer
				}
				continue
			}
		case earth.CauseToken:
			if e := latestBefore(ni.ev[earth.EvTokenDeliver], cur); e != nil {
				emit(e.Time-e.Dur, node, Comm, fmt.Sprintf("token placement from node %d", e.Peer))
				if inRange(e.Peer) {
					node = e.Peer
				}
				continue
			}
			if e := latestBefore(ni.ev[earth.EvWorkReassigned], cur); e != nil {
				from := e.Time
				if inRange(e.Peer) && idx[e.Peer].deadAt >= 0 && idx[e.Peer].deadAt < from {
					from = idx[e.Peer].deadAt
				}
				emit(from, node, Recovery, fmt.Sprintf("token re-dispatched after crash of node %d", e.Peer))
				if inRange(e.Peer) {
					node = e.Peer
				}
				continue
			}
			// Locally pooled token: the spawner ran here just before; keep
			// walking this node.
			pendingCat, pendingLabel = Sched, "token pooled"
		case earth.CauseSteal:
			if e := latestBefore(ni.ev[earth.EvStealGrant], cur); e != nil {
				emit(e.Time-e.Dur, node, Sched, fmt.Sprintf("steal round trip to node %d", e.Peer))
				if inRange(e.Peer) {
					node = e.Peer
				}
				continue
			}
		case earth.CauseHandler:
			if e := latestBefore(ni.ev[earth.EvPostSend], cur); e != nil {
				emit(e.Time, node, Comm, fmt.Sprintf("post transit from node %d", e.Node))
				if inRange(e.Node) {
					node = e.Node
				}
				continue
			}
		}
	}
	if cur > 0 {
		segs = append(segs, Segment{Start: 0, End: cur, Node: node, Cat: Idle, Label: "walk truncated"})
	}
	// Emitted backward; present earliest-first.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// TopSegments returns the k longest critical-path segments, longest
// first (ties: earlier start first).
func (a *Analysis) TopSegments(k int) []Segment {
	out := make([]Segment, len(a.Path))
	copy(out, a.Path)
	sort.SliceStable(out, func(i, j int) bool {
		if d1, d2 := out[i].Dur(), out[j].Dur(); d1 != d2 {
			return d1 > d2
		}
		return out[i].Start < out[j].Start
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// renderTop is the number of longest critical-path segments Render lists.
const renderTop = 8

// Render formats the analysis as a fixed-width text report with the
// per-node table, machine totals, the critical-path decomposition and
// the renderTop longest path segments. The output is a pure function of
// the analysis and therefore byte-stable under simrt.
func (a *Analysis) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "overhead attribution: P=%d makespan=%v\n", len(a.Nodes), a.Makespan)
	fmt.Fprintf(&sb, "%-6s", "node")
	for c := Category(0); c < numCategories; c++ {
		fmt.Fprintf(&sb, " %9s", c)
	}
	sb.WriteString("\n")
	for n, b := range a.Nodes {
		fmt.Fprintf(&sb, "%-6d", n)
		for _, f := range b.Fractions() {
			fmt.Fprintf(&sb, " %8.3f%%", 100*f)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-6s", "total")
	for _, f := range a.Total.Fractions() {
		fmt.Fprintf(&sb, " %8.3f%%", 100*f)
	}
	sb.WriteString("\n")

	fmt.Fprintf(&sb, "critical path: %d segments\n", len(a.Path))
	fmt.Fprintf(&sb, "%-6s", "span")
	for _, f := range a.PathBreakdown.Fractions() {
		fmt.Fprintf(&sb, " %8.3f%%", 100*f)
	}
	sb.WriteString("\n")
	if len(a.Path) > 0 {
		fmt.Fprintf(&sb, "top %d critical-path segments:\n", renderTop)
		for _, s := range a.TopSegments(renderTop) {
			fmt.Fprintf(&sb, "  [%12v .. %12v] node %-3d %-8s %s\n",
				s.Start, s.End, s.Node, s.Cat, s.Label)
		}
	}
	return sb.String()
}
