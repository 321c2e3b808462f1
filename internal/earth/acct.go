package earth

import (
	"math/rand"

	"earth/internal/manna"
	"earth/internal/sim"
)

// This file is the operation-accounting part of the protocol core: what is
// counted and traced at each point of an EARTH operation — a sync signal,
// the issue and the landing of a message, a body run, a message on the wire
// — and where the balancer places a token. Both engines account through it,
// so they count and trace one operation set the same way; they keep how a
// message moves, what time it is and where traffic is routed.

// NodeAcct is one node's accounting: its counters, its share of the
// sanitizer's ledger and the run's event sink (the zero Sink for an
// untraced run).
// Signal, Ran and Sent write it, so only the executor running the node's
// work calls them; Issue and Deliver only emit.
//
// Issue, Deliver and Ran ask Sink.On before they emit. Sink.Event checks
// too, but only after its argument is built, and building the Event on an
// untraced run made livert's token storm about 2 % slower on a 2-core host
// (EXPERIMENTS.md, "one nil-safe event sink"). Signal's emission costs
// nothing measurable beside its frame update.
type NodeAcct struct {
	Node  NodeID
	Stats NodeStats
	San   SanLedger
	Sink  Sink
	// Checksum is the end-to-end checksum every transfer carries:
	// manna.ChecksumBytes when the plan can corrupt payloads, else 0.
	Checksum int
}

// Reset clears the counters and the ledger for a run, which the ledger
// tracks when sanitize is on (Config.Sanitize).
func (a *NodeAcct) Reset(sanitize bool) {
	a.Stats = NodeStats{}
	a.San.Reset(sanitize)
}

// Signal accounts a sync signal from node from, processed here at instant
// at, and applies it to slot of f. It returns the thread body the slot
// enabled, nil if it did not fire; the engine enqueues it.
func (a *NodeAcct) Signal(at sim.Time, from NodeID, f *Frame, slot int) ThreadBody {
	a.Stats.Syncs++
	a.Sink.Event(Event{Time: at, Node: a.Node, Peer: from, Kind: EvSyncSignal})
	a.San.Track(f)
	if fired, th := f.Dec(slot); fired {
		return f.ThreadBody(th)
	}
	return nil
}

// Issue accounts an operation of kind k — EvPutSend, EvGetSend,
// EvInvokeSend, EvPostSend, EvTokenSpawn or EvStealRequest — leaving this
// node at instant at for peer (NoPeer for a token pooled here), with bytes
// of payload.
func (a *NodeAcct) Issue(k EventKind, at sim.Time, peer NodeID, bytes int) {
	if a.Sink.On() {
		a.Sink.Event(Event{Time: at, Node: a.Node, Peer: peer, Kind: k, Bytes: bytes})
	}
}

// Deliver accounts an operation of kind k — EvPutDeliver, EvGetDeliver,
// EvInvokeDeliver, EvTokenDeliver or EvStealGrant — landing here at instant
// at, with bytes of payload, from peer, which issued it at issue.
func (a *NodeAcct) Deliver(k EventKind, at, issue sim.Time, peer NodeID, bytes int) {
	if a.Sink.On() {
		a.Sink.Event(Event{Time: at, Node: a.Node, Peer: peer, Kind: k, Bytes: bytes, Dur: at - issue})
	}
}

// Ran accounts one body run here from start to end. A handler (cause
// CauseHandler) is traced as EvHandlerRun and counted nowhere. A thread is
// traced as EvThreadRun, with the wait since ready, and counted in
// ThreadsRun; a token (CauseToken, CauseSteal) also in TokensRun, and a
// stolen one in TokensStolen.
func (a *NodeAcct) Ran(start, end, ready sim.Time, cause Cause) {
	kind, wait := EvHandlerRun, sim.Time(0)
	if cause != CauseHandler {
		kind, wait = EvThreadRun, start-ready
		a.Stats.ThreadsRun++
		if cause == CauseToken || cause == CauseSteal {
			a.Stats.TokensRun++
		}
		if cause == CauseSteal {
			a.Stats.TokensStolen++
		}
	}
	if a.Sink.On() {
		a.Sink.Event(Event{Time: start, Node: a.Node, Peer: NoPeer, Kind: kind, Dur: end - start, Wait: wait, Cause: cause})
	}
}

// Sent counts one message leaving this node with payload bytes and returns
// its size on the wire: payload, header and checksum.
func (a *NodeAcct) Sent(payload int) int {
	wire := payload + manna.HeaderBytes + a.Checksum
	a.Stats.MsgsSent++
	a.Stats.BytesSent += uint64(wire)
	return wire
}

// PlaceToken returns the node balancer b sends a new token to in a machine
// of p nodes: a draw from the creating node's stream rng under
// BalanceRandomPlace; under BalanceRoundRobin the node's cursor *rr, which
// it advances, so each node deals its own tokens round the machine. ok is
// false under the balancers that pool a token where it was created.
func PlaceToken(b Balancer, p int, rng func() *rand.Rand, rr *int) (to NodeID, ok bool) {
	switch b {
	case BalanceRandomPlace:
		return NodeID(rng().Intn(p)), true
	case BalanceRoundRobin:
		*rr++
		return NodeID((*rr - 1) % p), true
	}
	return 0, false
}

// ThreadDeliver is the kind Deliver traces for a thread body landing for
// cause: EvTokenDeliver for a placed token, EvInvokeDeliver for an invoke.
func ThreadDeliver(cause Cause) EventKind {
	if cause == CauseToken {
		return EvTokenDeliver
	}
	return EvInvokeDeliver
}
