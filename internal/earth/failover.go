package earth

import (
	"sync/atomic"

	"earth/internal/faults"
	"earth/internal/sim"
)

// This file is the failover-accounting part of the protocol core: what is
// counted and traced when a down node's work changes hands, who may take
// it, and which partition windows a trace brackets. The engines own the
// move itself (queue draining, envelopes, timers).

// Handover accounts work leaving node Down — crashed (CauseCrash) or
// wrongly declared dead across a partition (CausePartition) — at instant
// At: the queued threads and pooled tokens of a detection or fence
// boundary, and messages rerouted in flight. Each method emits the event
// into Sink and returns the counter deltas to Add to the node taking the
// work.
type Handover struct {
	Down  NodeID
	At    sim.Time
	Cause Cause
	Sink  Sink
}

// Declare accounts the detector's verdict that opens a boundary hand-over,
// issued by the adopting successor to, one lease after Down fell silent:
// EvNodeDown for a crash; for a partition the verdict is wrong, so it is
// EvPartitionFence and counts against the adopter.
func (h Handover) Declare(to NodeID, lease sim.Time) NodeStats {
	ev, d := Event{Kind: EvNodeDown}, NodeStats{}
	if h.Cause == CausePartition {
		ev, d = Event{Kind: EvPartitionFence}, NodeStats{WrongVerdicts: 1}
	}
	ev.Time, ev.Node, ev.Peer, ev.Dur, ev.Cause = h.At, to, h.Down, lease, h.Cause
	h.Sink.Event(ev)
	return d
}

// Replay accounts one queued thread or in-flight invoke re-instantiated
// on to from its checkpointed frame.
func (h Handover) Replay(to NodeID) NodeStats {
	h.Sink.Event(Event{Time: h.At, Node: to, Peer: h.Down, Kind: EvFrameReplayed, Cause: h.Cause})
	return NodeStats{FramesReplayed: 1}
}

// Reassign accounts one token, pooled or in flight, with bytes of
// arguments, returned to the load balancer and re-placed on to.
func (h Handover) Reassign(to NodeID, bytes int) NodeStats {
	h.Sink.Event(Event{Time: h.At, Node: to, Peer: h.Down, Kind: EvWorkReassigned, Bytes: bytes, Cause: h.Cause})
	return NodeStats{TokensReassigned: 1}
}

// NodeFault accounts a fault-plan intervention on node itself rather than
// on a message it sent — a crash-stop (dur: the detection lease ahead) or
// a pause window served (dur: what is left of it) — starting at instant at.
func NodeFault(sink Sink, node NodeID, at sim.Time, cause Cause, dur sim.Time) NodeStats {
	sink.Event(Event{Time: at, Node: node, Peer: NoPeer, Kind: EvFaultInjected, Cause: cause, Dur: dur})
	return NodeStats{FaultsInjected: 1}
}

// Rejoin accounts a self-fenced node completing its reconciliation
// handshake at instant at, its partition healing fencedFor after it
// fenced.
func Rejoin(sink Sink, node NodeID, at, fencedFor sim.Time) NodeStats {
	sink.Event(Event{Time: at, Node: node, Peer: NoPeer, Kind: EvRejoined, Dur: fencedFor, Cause: CausePartition})
	return NodeStats{Rejoins: 1}
}

// Takeover is the machine's one table of node fates, which both engines
// ask: per node, whether it crashed, whether it was ever fenced (a fenced
// node's ownership never returns), its incarnation epoch and the adopter
// each hand-over of its frames picked, all in atomics; and the crash and
// fence schedule, from which simrt routes in flight and both engines arm
// their boundaries. Owner answers "who holds x's frames now": x itself
// until a hand-over, then the adopter that hand-over recorded — and that
// adopter's, if it went down too. A machine whose plan neither crashes nor
// fences anyone keeps no fates, and each question is one check.
//
// A hand-over adopter must not be out at its instant: gone, or fenced or
// crashed by the schedule then. The schedule is consulted as well as the
// flags because fences of one partition, and a crash with a fence or a
// detection, may fall on one instant: whichever the engine applies first
// must not hand its work to a peer whose own boundary has not been applied
// yet. The simulator applies a crash before any other boundary of its
// instant; livert's timers race, and fire late.
type Takeover struct {
	// CrashAt is the crash schedule (-1 = never; nil for none) and Fences
	// the wrong-verdict schedule; Init sets both, and nothing changes them.
	CrashAt []sim.Time
	Fences  faults.Fences
	nodes   int
	lease   sim.Time
	fate    []fate
	// rr is the load balancer's round-robin cursor for re-placed tokens.
	rr atomic.Int64
}

// fate is one node's row of the table.
type fate struct {
	crashed, fenced atomic.Bool
	// adopter is the node holding this one's frames, -1 while it holds
	// them itself.
	adopter atomic.Int32
	epoch   atomic.Uint64
}

// Init installs fs's schedule for a machine of nodes, every node up and
// holding its own frames.
func (t *Takeover) Init(nodes int, fs FaultSetup) {
	t.nodes, t.lease, t.CrashAt, t.Fences = nodes, fs.Retry.Lease, fs.CrashAt, fs.Fences
	if fs.CrashAt != nil || len(fs.Fences) > 0 {
		t.fate = make([]fate, nodes)
	}
	t.Reset()
}

// Reset brings every node back up, holding its own frames at epoch 0, and
// rewinds the placement cursor, for the next run.
func (t *Takeover) Reset() {
	t.rr.Store(0)
	for i := range t.fate {
		f := &t.fate[i]
		f.crashed.Store(false)
		f.fenced.Store(false)
		f.adopter.Store(-1)
		f.epoch.Store(0)
	}
}

// Crash records x's crash-stop. It reports false when x had crashed
// already.
func (t *Takeover) Crash(x NodeID) bool { return !t.fate[x].crashed.Swap(true) }

// Fence records the wrong verdict that fences x and bumps its epoch, so
// receivers reject what its old incarnation sent. It reports false, and
// records nothing, when x has crashed: the crash owns that hand-over.
func (t *Takeover) Fence(x NodeID) bool {
	f := &t.fate[x]
	if f.crashed.Load() {
		return false
	}
	f.fenced.Store(true)
	f.epoch.Add(1)
	return true
}

// Crashed reports whether x has crashed.
func (t *Takeover) Crashed(x NodeID) bool { return t.fate != nil && t.fate[x].crashed.Load() }

// gone reports whether x is out of the adoption and placement rings for
// good: crashed, or fenced at some point of the run.
func (t *Takeover) gone(x NodeID) bool { return t.fate[x].crashed.Load() || t.fate[x].fenced.Load() }

// Epoch returns x's incarnation epoch, which each fence bumps.
func (t *Takeover) Epoch(x NodeID) uint64 {
	if t.fate == nil {
		return 0
	}
	return t.fate[x].epoch.Load()
}

// Owner returns the node holding x's frames now: x until a hand-over of
// them, then the adopter it recorded, followed through later hand-overs.
// A crashed node holds its frames until its detection hands them over.
func (t *Takeover) Owner(x NodeID) NodeID {
	if t.fate == nil {
		return x
	}
	for {
		a := t.fate[x].adopter.Load()
		if a < 0 {
			return x
		}
		x = NodeID(a)
	}
}

func (t *Takeover) out(c NodeID, at sim.Time) bool {
	return t.gone(c) || t.Fences.Covering(int(c), at) || t.CrashAt != nil && t.CrashAt[c] >= 0 && t.CrashAt[c] <= at
}

// HandOver picks the node adopting x's frames and queued threads when x
// is declared down — crashed or fenced, and recorded so — at instant at:
// the first node in ring order from x that is not out. It records the
// pick as the holder of x's frames and returns it. livert calls it under
// x's lock, which is where its pushes ask Owner.
func (t *Takeover) HandOver(x NodeID, at sim.Time) NodeID {
	a := ringFrom(x, t.nodes, func(c NodeID) bool { return t.out(c, at) })
	t.fate[x].adopter.Store(int32(a))
	return a
}

// Place returns the balancer's next round-robin target for one of a down
// node's pooled tokens at instant at, skipping nodes that are out. It
// terminates because ResolveFaults rejects plans that leave no node
// forever clean.
func (t *Takeover) Place(at sim.Time) NodeID {
	for {
		if c := NodeID(int(t.rr.Add(1)-1) % t.nodes); !t.out(c, at) {
			return c
		}
	}
}

// Reroute returns where traffic for x, which the schedule has down at
// instant at, goes by the schedule alone: the first node in ring order
// from x that is neither crashed a lease before at (declared down by
// then) nor fenced at at. simrt routes a message when it is sent with
// it, before any of that is recorded.
func (t *Takeover) Reroute(x NodeID, at sim.Time) NodeID {
	return ringFrom(x, t.nodes, func(c NodeID) bool {
		return t.CrashAt != nil && t.CrashAt[c] >= 0 && at >= t.CrashAt[c]+t.lease || t.Fences.Covering(int(c), at)
	})
}

// ringFrom returns the first node in ring order starting at x itself for
// which down reports false. Panics when every node is down; ResolveFaults
// rejects plans that kill the whole machine up front.
func ringFrom(x NodeID, nodes int, down func(NodeID) bool) NodeID {
	for i := 0; i < nodes; i++ {
		if c := NodeID((int(x) + i) % nodes); !down(c) {
			return c
		}
	}
	panic("earth: crash plan left no live node to adopt work")
}

// PartitionMarks calls mark for every partition-window edge a traced run
// reports, with the event to emit at ev.Time for each minority-side node
// (MarkPartition): the start of each window, Dur its length, and the heal
// of those inside the lease. A window outliving the lease fences its
// minority, and fenced nodes trace their heal as EvRejoined instead.
func PartitionMarks(plan *faults.Plan, lease sim.Time, mark func(pt faults.Partition, ev Event)) {
	for _, pt := range plan.Partition {
		mark(pt, Event{Kind: EvPartitionStart, Time: pt.From, Dur: pt.To - pt.From, Peer: NoPeer, Cause: CausePartition})
		if !pt.Outlives(lease) {
			mark(pt, Event{Kind: EvPartitionHeal, Time: pt.To, Peer: NoPeer, Cause: CausePartition})
		}
	}
}

// MarkPartition emits window edge ev for every minority-side node of pt
// inside a machine of the given size.
func MarkPartition(sink Sink, pt faults.Partition, nodes int, ev Event) {
	for _, x := range pt.Minority() {
		if x < nodes {
			ev.Node = NodeID(x)
			sink.Event(ev)
		}
	}
}
