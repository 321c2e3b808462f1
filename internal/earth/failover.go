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

// Takeover answers who may take a down node's work at one instant. A node
// is out when gone reports it (the engine's permanent flags: crashed, or
// ever fenced — a fenced node's ownership never returns) or when the
// schedule has it fenced or crashed at that instant. The schedule is
// consulted as well as the flags because fences of one partition, and a
// crash with a fence or a detection, may fall on one instant: whichever
// the engine applies first must not hand its work to a peer whose own
// boundary has not been applied yet. The simulator applies a crash before
// any other boundary of its instant; livert's timers race, and fire late.
type Takeover struct {
	Nodes   int
	Fences  faults.Fences
	CrashAt []sim.Time // the crash schedule: -1 = never; nil for none
	// rr is the load balancer's round-robin cursor for re-placed tokens.
	rr atomic.Int64
}

func (t *Takeover) out(c NodeID, at sim.Time, gone func(NodeID) bool) bool {
	return gone(c) || t.Fences.Covering(int(c), at) || t.CrashAt != nil && t.CrashAt[c] >= 0 && t.CrashAt[c] <= at
}

// Adopter returns the node adopting x's frames and queued threads when x
// is declared down — crashed or fenced — at instant at: the first node in
// ring order from x that is not out.
func (t *Takeover) Adopter(x NodeID, at sim.Time, gone func(NodeID) bool) NodeID {
	return Adopter(x, t.Nodes, func(c NodeID) bool { return t.out(c, at, gone) })
}

// Place returns the balancer's next round-robin target for one of a down
// node's pooled tokens at instant at, skipping nodes that are out. It
// terminates because ResolveFaults rejects plans that leave no node
// forever clean.
func (t *Takeover) Place(at sim.Time, gone func(NodeID) bool) NodeID {
	for {
		if c := NodeID(int(t.rr.Add(1)-1) % t.Nodes); !t.out(c, at, gone) {
			return c
		}
	}
}

// Reset rewinds the placement cursor for the next run.
func (t *Takeover) Reset() { t.rr.Store(0) }

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
