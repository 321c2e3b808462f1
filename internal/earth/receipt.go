package earth

import (
	"sync"

	"earth/internal/sim"
)

// This file is the receive-side half of the delivery-protocol core: what
// a receiver does with one arriving copy of a remote message, as a pure
// function of the facts the copy carries. PlanDelivery decided when the
// copy lands; Receive decides whether its effect applies. The engines own
// only the envelope move around it.

// Verdict is what the receiver does with one arriving copy.
type Verdict uint8

const (
	// Fire applies the message's effect.
	Fire Verdict = iota
	// FenceNACK rejects a copy from an incarnation the cluster has since
	// declared dead; its effect is discarded.
	FenceNACK
	// DropDuplicate discards the second copy of a duplicated transmission.
	DropDuplicate
)

// Arrival is the facts one arriving copy carries.
type Arrival struct {
	// From is the sender, Bytes the payload size and Issue the (effective)
	// issue instant: the receipt events report them as Peer, Bytes and —
	// measured from Issue to the receipt instant — Dur.
	From  NodeID
	Bytes int
	Issue sim.Time
	// Seq, Drops, Corrupts and Dup are the Delivery fields of the same
	// names.
	Seq      uint64
	Drops    int
	Corrupts int
	Dup      bool
	// SendEpoch is the sender's incarnation epoch stamped at issue, Epoch
	// its epoch at receipt; they differ when the sender was fenced while
	// the copy was in flight.
	SendEpoch, Epoch uint64
	// Rerouted marks a copy that failed over in flight to an adopter.
	Rerouted bool
}

// Receive decides the fate of copy a landing on node at instant at, in a
// fixed order:
//
//  1. The fencing NACK comes before every other check: a copy whose
//     sender's epoch advanced in flight is from an incarnation the
//     cluster has declared dead, and must not touch adopted state — nor
//     the reroute and duplicate bookkeeping below (the work it carried is
//     lost, not re-instantiated; its twin may still be delivered).
//  2. A rerouted copy that passed the fence has its failover hops
//     accounted: reroute asks the engine to do so (Handover), whatever
//     the idempotent-delivery check then decides.
//  3. Idempotent delivery: both copies of a duplicated transmission
//     consult seen, and the second is discarded — which is what makes
//     duplicates and reorders safe (a doubled Sync would otherwise
//     over-decrement its slot).
//  4. The receiver's share of recovery accounting: one EvRecovered for a
//     copy that landed after dropped attempts, one EvCorrupt for the
//     attempts its checksum caught and NACKed.
//
// The counter deltas are added to stats: the receiving node's NodeStats,
// or a scratch one where the engine has to Add under a lock. (They are
// not returned: the call sits on every remote delivery of a faulted run,
// nearly all of which change no counter.) Like PlanDelivery it consults
// no clock, schedules nothing and allocates nothing; sink receives the
// events.
func Receive(a *Arrival, seen *SeenSet, at sim.Time, node NodeID, stats *NodeStats, sink Sink) (v Verdict, reroute bool) {
	if a.SendEpoch != a.Epoch {
		stats.MsgsFenced++
		a.report(sink, Event{Kind: EvFenced, Cause: CausePartition}, at, node)
		return FenceNACK, false
	}
	if a.Dup && !seen.First(a.Seq) {
		stats.DupsDropped++
		return DropDuplicate, a.Rerouted
	}
	if a.Drops > 0 {
		stats.Recovered++
		a.report(sink, Event{Kind: EvRecovered, Cause: CauseDrop}, at, node)
	}
	if a.Corrupts > 0 {
		stats.MsgsCorrupted += uint64(a.Corrupts)
		a.report(sink, Event{Kind: EvCorrupt, Cause: CauseCorrupt}, at, node)
	}
	return Fire, a.Rerouted
}

// report emits one receipt event of ev's kind and cause for a landing on
// node at instant at. Dur is the end-to-end issue-to-receipt latency the
// fault inflated.
func (a *Arrival) report(sink Sink, ev Event, at sim.Time, node NodeID) {
	ev.Time, ev.Node, ev.Peer, ev.Dur, ev.Bytes = at, node, a.From, at-a.Issue, a.Bytes
	sink.Event(ev)
}

// SeenSet is the idempotent-delivery store both engines share: the
// sequence numbers of duplicated transmissions one copy of which has been
// delivered. Entries self-clean when the second copy arrives, so the set
// holds only duplicates still in flight. The zero value is ready; it is
// safe for concurrent use (livert's executors consult one set per
// runtime).
type SeenSet struct {
	mu sync.Mutex
	m  map[uint64]struct{}
}

// First reports whether this is the first arrival of duplicated sequence
// number seq. The second arrival reports false and forgets seq.
func (s *SeenSet) First(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[seq]; ok {
		delete(s.m, seq)
		return false
	}
	if s.m == nil {
		s.m = make(map[uint64]struct{})
	}
	s.m[seq] = struct{}{}
	return true
}

// Reset forgets every entry, for the next run.
func (s *SeenSet) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.m)
}
