// Package faults provides a deterministic, seeded fault plan for the
// simulated MANNA network and the live runtime: per-message drop,
// duplication and reorder-window delay probabilities, plus transient
// link-degradation and node-pause windows.
//
// A Plan is pure data; an Injector owns the plan's random stream. Every
// fault decision is drawn from the injector's own seeded RNG, in
// message-issue order, so a chaos run under the deterministic simulator
// is byte-reproducible: same plan, same seed, same faults. The protocol
// core in internal/earth turns verdicts into recovery (PlanDelivery:
// capped exponential-backoff retransmits for drops; Receive:
// sequence-numbered first-delivery-wins dedup for duplicates).
//
// Plans parse from a compact spec string (the -faults flag):
//
//	drop=0.05,dup=0.02,reorder=0.1,window=200us,seed=7
//	pause=2@1ms-2ms            node 2 dispatches nothing in [1ms,2ms)
//	pause=*@500us-600us        every node pauses
//	degrade=*@0-5msx4          all links 4x slower in [0,5ms)
//	degrade=3@1ms-2msx8        links touching node 3, 8x slower
//	crash=2@1ms                node 2 fails permanently (crash-stop) at 1ms
//	partition=0.1|2.3@1ms-2ms  links between {0,1} and {2,3} cut in [1ms,2ms)
//	corrupt=0.01               1% of transmissions arrive bit-flipped
//
// The package depends only on internal/sim, so every layer above it
// (manna, earth, the engines, the harness) can import it freely.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"earth/internal/sim"
)

// Window is a time interval [From,To) during which a fault condition
// holds on one node (or all nodes, Node == -1). For degradation windows
// Factor is the wire-time multiplier; pause windows ignore it.
type Window struct {
	From, To sim.Time
	Node     int
	Factor   float64
}

// contains reports whether the window covers node at time at.
func (w Window) contains(node int, at sim.Time) bool {
	return (w.Node < 0 || w.Node == node) && at >= w.From && at < w.To
}

// Crash schedules a crash-stop failure: Node halts permanently at At and
// never recovers. Unlike transient faults, a crash is not masked by
// retries alone — the engines detect it after a lease timeout
// (RetryPolicy.Lease) and fail the node's checkpointed frames and queued
// work over to survivors. Node must name a concrete node (no "*"); At is
// engine time (virtual wire time under simrt, wall time since Run under
// livert, like pause/degrade windows).
type Crash struct {
	Node int
	At   sim.Time
}

// Partition schedules a network partition: during [From,To) every link
// between Groups[0] and Groups[1] drops everything, while links inside a
// group (and links touching nodes in neither group) stay up. A partition
// strictly longer than the failure-detection lease makes the detector's
// verdict wrong on both sides: the majority side (the larger group, ties
// broken toward the group holding the lowest node id; unlisted nodes
// always count as majority) declares the minority dead and adopts its
// work at a bumped incarnation epoch, while each minority node outlives
// its own lease, self-fences, and rejoins at the new epoch when the
// partition heals. Group node lists are kept sorted ascending.
type Partition struct {
	From, To sim.Time
	Groups   [2][]int
}

// covers reports whether the partition window contains time at.
func (pt Partition) covers(at sim.Time) bool { return at >= pt.From && at < pt.To }

// side returns which group node belongs to: 0, 1, or -1 when unlisted.
func (pt Partition) side(node int) int {
	for g, nodes := range pt.Groups {
		for _, n := range nodes {
			if n == node {
				return g
			}
		}
	}
	return -1
}

// cuts reports whether the partition severs the src-dst link (regardless
// of time): the endpoints sit in opposite groups.
func (pt Partition) cuts(src, dst int) bool {
	a, b := pt.side(src), pt.side(dst)
	return a >= 0 && b >= 0 && a != b
}

// minority returns the index of the group that self-fences when the
// partition outlives the lease: the smaller group, ties broken so the
// group holding the lowest node id survives as majority.
func (pt Partition) minority() int {
	la, lb := len(pt.Groups[0]), len(pt.Groups[1])
	if la != lb {
		if la < lb {
			return 0
		}
		return 1
	}
	// Node lists are sorted; the side with the smaller leading id wins.
	if pt.Groups[0][0] < pt.Groups[1][0] {
		return 1
	}
	return 0
}

// Minority returns the nodes on the partition's minority side — the ones
// that self-fence when the window outlives the detection lease. The
// engines use it to schedule partition-window trace events and (under
// livert) the self-fence timers.
func (pt Partition) Minority() []int { return pt.Groups[pt.minority()] }

// Outlives reports whether the window is strictly longer than the given
// detection lease — the one rule deciding that the partition produces
// wrong verdicts: its minority fences (PartitionFences) and traces a
// rejoin rather than a heal.
func (pt Partition) Outlives(lease sim.Time) bool { return lease >= 0 && pt.From+lease < pt.To }

// Fence is one wrong failure verdict produced by a partition that
// outlives the detection lease: Node (a minority-side node) is declared
// dead and self-fences at At = From+lease, and rejoins at Heal = To — or,
// when another window fences it again before that, when the last of the
// overlapping windows heals.
type Fence struct {
	Node     int
	At, Heal sim.Time
}

// Plan is a declarative fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed feeds the injector's RNG. 0 defers to the runtime's seed, so a
	// seed sweep explores different fault realisations automatically.
	Seed int64
	// Drop is the per-transmission loss probability in [0,1). Each loss
	// costs the sender one retransmit timeout (capped exponential
	// backoff); losses repeat until a transmission survives or the retry
	// budget is exhausted.
	Drop float64
	// Dup is the probability a message is delivered twice. The duplicate
	// carries the same sequence number and arrives one base timeout
	// later; receivers keep the first copy.
	Dup float64
	// Reorder is the probability a message is held back by a uniform
	// extra delay in (0,Window], letting later messages overtake it.
	Reorder float64
	// Window is the maximum reorder delay. 0 defaults to 100µs when
	// Reorder is set.
	Window sim.Time
	// Degrade lists transient link-degradation windows: wire time of
	// sends touching Window.Node (or all) is multiplied by Factor.
	Degrade []Window
	// Pause lists node-pause windows: the node's dispatcher stalls until
	// the window closes (messages still land; nothing executes).
	Pause []Window
	// Crash lists crash-stop failures: each named node halts permanently
	// at its scheduled time and its work fails over to survivors.
	Crash []Crash
	// Corrupt is the per-transmission probability in [0,1) that a payload
	// arrives bit-flipped. Receivers detect it by checksum, NACK, and the
	// sender retransmits through the same backoff path as a drop.
	Corrupt float64
	// Partition lists network-partition windows; see Partition.
	Partition []Partition
}

// Enabled reports whether the plan can inject anything at all.
func (p *Plan) Enabled() bool {
	return p != nil && (p.Drop > 0 || p.Dup > 0 || p.Reorder > 0 || p.Corrupt > 0 ||
		len(p.Degrade) > 0 || len(p.Pause) > 0 || len(p.Crash) > 0 || len(p.Partition) > 0)
}

// HasDegrade reports whether any link-degradation window is configured.
func (p *Plan) HasDegrade() bool { return p != nil && len(p.Degrade) > 0 }

// HasPause reports whether any node-pause window is configured.
func (p *Plan) HasPause() bool { return p != nil && len(p.Pause) > 0 }

// HasCrash reports whether any crash-stop failure is scheduled.
func (p *Plan) HasCrash() bool { return p != nil && len(p.Crash) > 0 }

// HasPartition reports whether any partition window is scheduled.
func (p *Plan) HasPartition() bool { return p != nil && len(p.Partition) > 0 }

// HasCorrupt reports whether payload corruption is configured.
func (p *Plan) HasCorrupt() bool { return p != nil && p.Corrupt > 0 }

// PartitionUnblock returns, for a message issued at time at from src to
// dst, the time the severing partition heals and the message can re-enter
// the network — or at itself when no partition cuts the link at issue
// time. Overlap validation guarantees at most one partition cuts a given
// link at a given instant, so the answer is order-independent.
func (p *Plan) PartitionUnblock(at sim.Time, src, dst int) sim.Time {
	if p != nil {
		for _, pt := range p.Partition {
			if pt.covers(at) && pt.cuts(src, dst) {
				return pt.To
			}
		}
	}
	return at
}

// Fences is a machine's wrong-verdict schedule: every Fence a plan's
// partitions produce under one lease, sorted by (At, Node). It is
// immutable once built and tiny (one entry per minority node per fenced
// window), so any goroutine may scan it freely.
type Fences []Fence

// Covering reports whether node sits inside one of its fence spans at
// time at: fenced at or before at (At <= at) and not yet healed
// (at < Heal). It is the one "is this node fenced right now" predicate
// the engines' routing and adopter choices and CheckFences share.
func (fs Fences) Covering(node int, at sim.Time) bool {
	for i := range fs {
		if f := &fs[i]; f.Node == node && at >= f.At && at < f.Heal {
			return true
		}
	}
	return false
}

// PartitionFences flattens the partition list into the wrong failure
// verdicts a machine of the given size will suffer under the given
// detection lease: one Fence per minority-side node of every partition
// that outlives the lease (To > From+lease), sorted by (At, Node). A node
// already fenced is not fenced again: a fence falling before the node's
// rejoin extends that fence to its own heal instead. Partitions naming
// nodes outside the machine contribute no fences for those nodes, so one
// plan can drive machines of several sizes.
func (p *Plan) PartitionFences(nodes int, lease sim.Time) Fences {
	if p == nil {
		return nil
	}
	var fences Fences
	for _, pt := range p.Partition {
		if !pt.Outlives(lease) {
			continue
		}
		for _, n := range pt.Groups[pt.minority()] {
			if n < nodes {
				fences = append(fences, Fence{Node: n, At: pt.From + lease, Heal: pt.To})
			}
		}
	}
	sort.Slice(fences, func(i, j int) bool {
		if fences[i].At != fences[j].At {
			return fences[i].At < fences[j].At
		}
		return fences[i].Node < fences[j].Node
	})
	merged := fences[:0]
	last := map[int]int{} // node -> index in merged of its latest fence
	for _, f := range fences {
		if i, ok := last[f.Node]; ok && f.At < merged[i].Heal {
			merged[i].Heal = max(merged[i].Heal, f.Heal)
			continue
		}
		last[f.Node] = len(merged)
		merged = append(merged, f)
	}
	return merged
}

// CheckFences rejects plans whose partitions (under the given machine
// size and lease) would at some instant have every node simultaneously
// self-fenced or crashed, leaving no survivor to adopt anything —
// mirroring the kill-all-nodes crash rejection. The engines call this at
// construction time, once the lease is known.
func (p *Plan) CheckFences(nodes int, lease sim.Time) error {
	fences := p.PartitionFences(nodes, lease)
	if len(fences) == 0 {
		return nil
	}
	crashAt := p.CrashSchedule(nodes)
	for _, f := range fences {
		// Instant f.At: who is up? Fenced nodes are down in [At, Heal);
		// crashed nodes are down from their crash time on.
		alive := 0
		for n := 0; n < nodes; n++ {
			if (crashAt[n] < 0 || crashAt[n] > f.At) && !fences.Covering(n, f.At) {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("faults: at %v every node is fenced or crashed; no survivor left to adopt (lease %v)",
				time.Duration(f.At), time.Duration(lease))
		}
	}
	// State ownership transfers permanently at a fence (a rejoined node
	// re-enters steal-only), so beyond the instant-by-instant check above,
	// at least one node must never crash and never be fenced at all — else
	// sequential partitions would eventually leave the adoption ring with
	// no everlasting owner to resolve to.
	for n := 0; n < nodes; n++ {
		if crashAt[n] >= 0 {
			continue
		}
		fenced := false
		for _, g := range fences {
			if g.Node == n {
				fenced = true
				break
			}
		}
		if !fenced {
			return nil
		}
	}
	return fmt.Errorf("faults: every node is eventually fenced or crashed; ownership transfer at a fence is permanent, so at least one node must stay clean (lease %v)",
		time.Duration(lease))
}

// CrashSchedule flattens the crash list into a per-node schedule for a
// machine of the given size: entry n is the time node n crashes, or -1
// when it never does. Crashes aimed at nodes outside the machine are
// dropped, so one plan can drive machines of several sizes.
func (p *Plan) CrashSchedule(nodes int) []sim.Time {
	at := make([]sim.Time, nodes)
	for i := range at {
		at[i] = -1
	}
	if p != nil {
		for _, c := range p.Crash {
			if c.Node < nodes {
				at[c.Node] = c.At
			}
		}
	}
	return at
}

// Validate reports an error for meaningless plans. Each rule family has
// its own check, run in this order: the first error wins.
func (p *Plan) Validate() error {
	for _, check := range []func() error{p.validateRates, p.validateWindows, p.validatePartitions, p.validateCrashes} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// validateRates requires every per-transmission probability in [0,1) and
// a non-negative reorder window.
func (p *Plan) validateRates() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"reorder", p.Reorder}, {"corrupt", p.Corrupt}} {
		if r.v < 0 || r.v >= 1 || r.v != r.v {
			return fmt.Errorf("faults: %s = %v, need a probability in [0,1)", r.name, r.v)
		}
	}
	if p.Window < 0 {
		return fmt.Errorf("faults: negative reorder window %v", p.Window)
	}
	return nil
}

// checkSpan rejects a fault window that starts before 0 or is empty.
func checkSpan(kind string, from, to sim.Time) error {
	if from < 0 {
		return fmt.Errorf("faults: %s window [%v,%v) starts before 0", kind, from, to)
	}
	if to <= from {
		return fmt.Errorf("faults: %s window [%v,%v) is empty", kind, from, to)
	}
	return nil
}

// validateWindows checks the degrade and pause windows: non-empty spans, a
// factor of at least 1, and no two pauses of one node overlapping.
func (p *Plan) validateWindows() error {
	for _, w := range p.Degrade {
		if err := checkSpan("degrade", w.From, w.To); err != nil {
			return err
		}
		if !(w.Factor >= 1) {
			return fmt.Errorf("faults: degrade factor %g, need >= 1", w.Factor)
		}
	}
	for _, w := range p.Pause {
		if err := checkSpan("pause", w.From, w.To); err != nil {
			return err
		}
	}
	// Overlapping pause windows for the same node would make PauseUntil
	// depend on list order (last writer wins); reject them outright. A
	// "*" window overlaps every node's windows.
	for i, w := range p.Pause {
		for _, v := range p.Pause[:i] {
			sameNode := w.Node == v.Node || w.Node < 0 || v.Node < 0
			if sameNode && w.From < v.To && v.From < w.To {
				return fmt.Errorf("faults: pause windows %s and %s overlap; merge them into one window",
					pauseSpec(v), pauseSpec(w))
			}
		}
	}
	return nil
}

// validatePartitions checks each partition's span and groups — both
// non-empty, concrete nodes, each node once — and that no two partitions
// overlapping in time cut the same link.
func (p *Plan) validatePartitions() error {
	for i, pt := range p.Partition {
		if err := checkSpan("partition", pt.From, pt.To); err != nil {
			return err
		}
		seen := map[int]int{}
		for g, nodes := range pt.Groups {
			if len(nodes) == 0 {
				return fmt.Errorf("faults: partition %s: both groups need at least one node", partitionSpec(pt))
			}
			for _, n := range nodes {
				if n < 0 {
					return fmt.Errorf("faults: partition %s: groups need concrete nodes, got %d", partitionSpec(pt), n)
				}
				if og, dup := seen[n]; dup {
					if og == g {
						return fmt.Errorf("faults: partition %s: node %d listed twice", partitionSpec(pt), n)
					}
					return fmt.Errorf("faults: partition %s: node %d is in both groups", partitionSpec(pt), n)
				}
				seen[n] = g
			}
		}
		// Two time-overlapping partitions cutting the same link would make
		// PartitionUnblock depend on list order; reject them outright.
		for _, qt := range p.Partition[:i] {
			if pt.From >= qt.To || qt.From >= pt.To {
				continue
			}
			for _, a := range pt.Groups[0] {
				for _, b := range pt.Groups[1] {
					if qt.cuts(a, b) {
						return fmt.Errorf("faults: partitions %s and %s overlap in time and both cut link %d-%d; merge or separate them",
							partitionSpec(qt), partitionSpec(pt), a, b)
					}
				}
			}
		}
	}
	return nil
}

// validateCrashes requires concrete nodes, non-negative instants and at
// most one crash per node.
func (p *Plan) validateCrashes() error {
	for i, c := range p.Crash {
		if c.Node < 0 {
			return fmt.Errorf("faults: crash needs a concrete node, got %d", c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("faults: crash time %v is negative", c.At)
		}
		for _, d := range p.Crash[:i] {
			if d.Node == c.Node {
				return fmt.Errorf("faults: node %d crashes twice (crash-stop failures are permanent)", c.Node)
			}
		}
	}
	return nil
}

// window returns the effective reorder window.
func (p *Plan) window() sim.Time {
	if p.Window > 0 {
		return p.Window
	}
	return 100 * sim.Microsecond
}

// LinkScale returns the wire-time multiplier for a send from src to dst
// starting at time at: the product of all matching degradation windows
// (a window matches when it covers either endpoint), 1 when none match.
// The signature matches manna's Machine.SetLinkScale hook.
func (p *Plan) LinkScale(at sim.Time, src, dst int) float64 {
	s := 1.0
	for _, w := range p.Degrade {
		if at >= w.From && at < w.To && (w.Node < 0 || w.Node == src || w.Node == dst) {
			s *= w.Factor
		}
	}
	return s
}

// PauseUntil returns the time node may resume dispatching: the end of the
// pause window covering at, or at itself when the node is not paused.
func (p *Plan) PauseUntil(node int, at sim.Time) sim.Time {
	for _, w := range p.Pause {
		if w.contains(node, at) {
			return w.To
		}
	}
	return at
}

// String renders the plan in the Parse spec grammar.
func (p *Plan) String() string {
	var parts []string
	add := func(name string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", name, v))
		}
	}
	add("drop", p.Drop)
	add("dup", p.Dup)
	add("reorder", p.Reorder)
	add("corrupt", p.Corrupt)
	if p.Window > 0 {
		parts = append(parts, fmt.Sprintf("window=%v", time.Duration(p.Window)))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	node := func(n int) string {
		if n < 0 {
			return "*"
		}
		return strconv.Itoa(n)
	}
	for _, w := range p.Pause {
		parts = append(parts, "pause="+pauseSpec(w))
	}
	for _, w := range p.Degrade {
		parts = append(parts, fmt.Sprintf("degrade=%s@%v-%vx%g",
			node(w.Node), time.Duration(w.From), time.Duration(w.To), w.Factor))
	}
	for _, c := range p.Crash {
		parts = append(parts, fmt.Sprintf("crash=%d@%v", c.Node, time.Duration(c.At)))
	}
	for _, pt := range p.Partition {
		parts = append(parts, "partition="+partitionSpec(pt))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// partitionSpec renders one partition window in the Parse grammar
// (shared by String and the validation error messages).
func partitionSpec(pt Partition) string {
	group := func(nodes []int) string {
		ss := make([]string, len(nodes))
		for i, n := range nodes {
			ss[i] = strconv.Itoa(n)
		}
		return strings.Join(ss, ".")
	}
	return fmt.Sprintf("%s|%s@%v-%v",
		group(pt.Groups[0]), group(pt.Groups[1]),
		time.Duration(pt.From), time.Duration(pt.To))
}

// pauseSpec renders one pause window in the Parse grammar (shared by
// String and the overlap error message).
func pauseSpec(w Window) string {
	node := "*"
	if w.Node >= 0 {
		node = strconv.Itoa(w.Node)
	}
	return fmt.Sprintf("%s@%v-%v", node, time.Duration(w.From), time.Duration(w.To))
}

// Parse builds a Plan from a comma-separated spec (see the package
// comment for the grammar). An empty spec yields an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q: want key=value", field)
		}
		var err error
		switch key {
		case "drop":
			p.Drop, err = parseProb(key, val)
		case "dup":
			p.Dup, err = parseProb(key, val)
		case "reorder":
			p.Reorder, err = parseProb(key, val)
		case "window":
			p.Window, err = parseDur(key, val)
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("faults: seed %q: %v", val, err)
			}
		case "pause":
			var w Window
			w, err = parseWindow(key, val, false)
			p.Pause = append(p.Pause, w)
		case "degrade":
			var w Window
			w, err = parseWindow(key, val, true)
			p.Degrade = append(p.Degrade, w)
		case "crash":
			var c Crash
			c, err = parseCrash(val)
			p.Crash = append(p.Crash, c)
		case "corrupt":
			p.Corrupt, err = parseProb(key, val)
		case "partition":
			var pt Partition
			pt, err = parsePartition(val)
			p.Partition = append(p.Partition, pt)
		default:
			return nil, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return p, p.Validate()
}

// The parse helpers reject only what does not fit the grammar; Validate,
// which Parse ends with, owns every rule on the values.

func parseProb(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s=%q: want a probability", key, val)
	}
	return f, nil
}

func parseDur(key, val string) (sim.Time, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, fmt.Errorf("faults: %s=%q: want a duration", key, val)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// parseWindow parses "<node|*>@<from>-<to>" with an "x<factor>" suffix
// when factored (degrade windows).
func parseWindow(key, val string, factored bool) (Window, error) {
	w := Window{Factor: 1}
	nodePart, rest, ok := strings.Cut(val, "@")
	if !ok {
		return w, fmt.Errorf("faults: %s=%q: want <node|*>@<from>-<to>", key, val)
	}
	if nodePart == "*" {
		w.Node = -1
	} else {
		n, err := strconv.Atoi(nodePart)
		if err != nil || n < 0 {
			return w, fmt.Errorf("faults: %s=%q: bad node %q", key, val, nodePart)
		}
		w.Node = n
	}
	if factored {
		span, fpart, ok := cutLast(rest, "x")
		if !ok {
			return w, fmt.Errorf("faults: %s=%q: want ...x<factor>", key, val)
		}
		f, err := strconv.ParseFloat(fpart, 64)
		if err != nil {
			return w, fmt.Errorf("faults: %s=%q: bad factor %q", key, val, fpart)
		}
		w.Factor = f
		rest = span
	}
	fromPart, toPart, ok := strings.Cut(rest, "-")
	if !ok {
		return w, fmt.Errorf("faults: %s=%q: want <from>-<to>", key, val)
	}
	var err error
	if w.From, err = parseDur(key, fromPart); err != nil {
		return w, err
	}
	w.To, err = parseDur(key, toPart)
	return w, err
}

// parseCrash parses "<node>@<at>". Crash-stop failures name a concrete
// node: "*" would kill the whole machine and leave nothing to recover on.
func parseCrash(val string) (Crash, error) {
	nodePart, atPart, ok := strings.Cut(val, "@")
	if !ok {
		return Crash{}, fmt.Errorf("faults: crash=%q: want <node>@<at>", val)
	}
	n, err := strconv.Atoi(nodePart)
	if err != nil {
		return Crash{}, fmt.Errorf("faults: crash=%q: bad node %q (want a concrete node, not *)", val, nodePart)
	}
	at, err := parseDur("crash", atPart)
	if err != nil {
		return Crash{}, err
	}
	return Crash{Node: n, At: at}, nil
}

// parsePartition parses "<a>.<b>|<c>.<d>@<from>-<to>": two dot-separated
// node groups split by "|", then the window. Group lists are sorted
// ascending so String renders a canonical form.
func parsePartition(val string) (Partition, error) {
	var pt Partition
	groupsPart, span, ok := strings.Cut(val, "@")
	if !ok {
		return pt, fmt.Errorf("faults: partition=%q: want <groupA>|<groupB>@<from>-<to>", val)
	}
	ga, gb, ok := strings.Cut(groupsPart, "|")
	if !ok {
		return pt, fmt.Errorf("faults: partition=%q: want two groups separated by |", val)
	}
	for g, part := range []string{ga, gb} {
		for _, field := range strings.Split(part, ".") {
			n, err := strconv.Atoi(field)
			if err != nil {
				return pt, fmt.Errorf("faults: partition=%q: bad node %q (want dot-separated concrete nodes)", val, field)
			}
			pt.Groups[g] = append(pt.Groups[g], n)
		}
		sort.Ints(pt.Groups[g])
	}
	fromPart, toPart, ok := strings.Cut(span, "-")
	if !ok {
		return pt, fmt.Errorf("faults: partition=%q: want <from>-<to>", val)
	}
	var err error
	if pt.From, err = parseDur("partition", fromPart); err != nil {
		return pt, err
	}
	pt.To, err = parseDur("partition", toPart)
	return pt, err
}

// cutLast cuts s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// Verdict is the injector's decision for one message transmission.
type Verdict struct {
	// Seq is the message's unique sequence number (never 0). Duplicates
	// share the original's Seq.
	Seq uint64
	// Drops is how many transmission attempts were lost before one got
	// through; each costs the sender a retransmit timeout.
	Drops int
	// Dup requests a duplicate delivery of the same sequence number.
	Dup bool
	// Delay is extra in-network latency (reorder-window hold-back).
	Delay sim.Time
	// Corrupts is how many transmission attempts arrived bit-flipped
	// before a clean one: the receiver's checksum catches each, NACKs,
	// and the sender retransmits — so like Drops, each corrupted attempt
	// costs one retransmit timeout, but the loss is detected at the
	// receiver rather than inferred by the sender.
	Corrupts int
}

// Injector owns a plan's random stream and sequence numbering.
// It is safe for concurrent use (livert calls it from every executor);
// under simrt all calls come from the simulation goroutine in
// deterministic order, which is what makes chaos runs reproducible.
type Injector struct {
	mu   sync.Mutex
	plan *Plan
	seed int64
	// rng is the stream. Reset clears seeded, and the first draw after it
	// reseeds rng in place (stream), so a run that never draws — under a
	// crash- or partition-only plan — never pays for seeding.
	rng    *rand.Rand
	seeded bool
	seq    uint64
	// seqBase offsets every Verdict.Seq issued by this injector. Lane
	// injectors (NewLaneInjector) use disjoint bases so sequence numbers
	// stay globally unique across per-node fault streams.
	seqBase uint64
}

// NewInjector builds an injector for plan. When the plan has no seed of
// its own, fallbackSeed (typically the runtime's Config.Seed) is used, so
// seed sweeps vary the fault realisation along with the schedule.
func NewInjector(plan *Plan, fallbackSeed int64) *Injector {
	seed := plan.Seed
	if seed == 0 {
		seed = fallbackSeed*1_000_003 + 12289
	}
	in := &Injector{plan: plan, seed: seed}
	in.Reset()
	return in
}

// NewLaneInjector builds one lane of an injector bank: lane n draws from
// its own seeded stream (derived from the plan seed and the lane index)
// and issues sequence numbers from a disjoint range. With one lane per
// sender node, a sender's verdict stream depends only on its own send
// order — every decision is a pure function of (plan, seed, lane,
// per-lane issue order) — and not on how the other nodes' sends
// interleave with it. The realisation differs from a single shared
// injector's, but it is equally plan-faithful.
//
// The lane index must be in [0, 1<<23): 2^40 sequence numbers per lane
// leaves seqs unique for any realistic run length.
func NewLaneInjector(plan *Plan, fallbackSeed int64, lane int) *Injector {
	seed := plan.Seed
	if seed == 0 {
		seed = fallbackSeed*1_000_003 + 12289
	}
	// Golden-ratio mix keeps adjacent lanes' streams uncorrelated even for
	// small consecutive seeds.
	seed ^= int64(uint64(lane+1) * 0x9E3779B97F4A7C15)
	in := &Injector{plan: plan, seed: seed, seqBase: uint64(lane+1) << 40}
	in.Reset()
	return in
}

// Reset rewinds the random stream and the sequence numbering, so a
// re-run of the same program sees the same fault sequence.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seeded, in.seq = false, 0
}

// stream returns the random stream, seeded from the start when this is the
// first draw since Reset. in.mu must be held.
func (in *Injector) stream() *rand.Rand {
	if !in.seeded {
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(in.seed))
		} else {
			in.rng.Seed(in.seed)
		}
		in.seeded = true
	}
	return in.rng
}

// Next draws the fault verdict for the next message transmission.
// maxDrops caps the consecutive losses (the sender's retry budget), which
// guarantees every message is eventually delivered.
func (in *Injector) Next(maxDrops int) Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	v := Verdict{Seq: in.seqBase + in.seq}
	p := in.plan
	if p.Drop > 0 {
		for v.Drops < maxDrops && in.stream().Float64() < p.Drop {
			v.Drops++
		}
	}
	if p.Dup > 0 && in.stream().Float64() < p.Dup {
		v.Dup = true
	}
	if p.Reorder > 0 && in.stream().Float64() < p.Reorder {
		v.Delay = sim.Time(in.stream().Int63n(int64(p.window()))) + 1
	}
	// Corruption draws come last, gated on the knob, so plans without
	// corrupt= replay the exact pre-existing random stream (goldens from
	// earlier fault modes stay byte-identical). The drop budget left after
	// actual drops caps corrupted attempts: both consume retransmits.
	if p.Corrupt > 0 {
		for v.Corrupts < maxDrops-v.Drops && in.stream().Float64() < p.Corrupt {
			v.Corrupts++
		}
	}
	return v
}

// Float64 draws one uniform variate in [0,1) from the injector's stream.
// The engines use it for seeded retry jitter (RetryPolicy.Jitter): the
// draw interleaves with verdict draws in message-issue order, so jittered
// chaos runs stay byte-reproducible under simrt.
func (in *Injector) Float64() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stream().Float64()
}
