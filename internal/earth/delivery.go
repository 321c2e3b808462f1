package earth

import (
	"earth/internal/faults"
	"earth/internal/sim"
)

// This file is the delivery-protocol core both engines share: the
// send-side half of the recovery protocol RetryPolicy describes, as a
// pure function of (fault verdict, retry policy, fault plan, issue time).
// It owns the decision "what happens to this transmission, and when";
// the engines own only a clock (virtual time or the wall) and a
// transport (pooled envelopes or timers).

// Delivery is the planned fate of one remote transmission.
type Delivery struct {
	// Issue is the effective issue instant: the heal instant when a cut
	// link held the message, otherwise the caller's issue time. The
	// retransmit chain's events are timed from it.
	Issue sim.Time
	// Delay is the total the protocol adds to the message's wire latency:
	// cut-link hold, retransmit timeouts, checksum-NACK resends and
	// reorder hold-back. The message lands at (clean arrival) + Delay.
	Delay sim.Time
	// Seq, Drops, Corrupts and Dup are what the receiver needs for
	// idempotent delivery and its recovered/corrupt accounting. A
	// duplicate copy trails the original by RetryTimeout.
	Seq      uint64
	Drops    int
	Corrupts int
	Dup      bool
	// FaultsInjected and Retries are the deltas to add to the sender's
	// NodeStats counters of the same names.
	FaultsInjected uint64
	Retries        uint64
}

// Faulted reports whether the receiver has anything to check or account:
// the message is one of two copies, or landed after lost or corrupted
// attempts.
func (d *Delivery) Faulted() bool { return d.Dup || d.Drops > 0 || d.Corrupts > 0 }

// backoff walks one message's retransmit chain, emitting the
// EvTimedOut/EvRetry pair of every attempt on the sender.
type backoff struct {
	sink     Sink
	src, dst NodeID
	bytes    int
	scale    float64 // jitter factor; 0 leaves timeouts exact
	attempt  int
	deadline sim.Time
}

// step times out the next attempt: it advances the deadline by the
// attempt's (jittered) timeout and reports the retransmission.
func (b *backoff) step(cause Cause) {
	to := AttemptTimeout(b.attempt)
	if b.scale != 0 {
		to = max(1, sim.Time(float64(to)*b.scale))
	}
	b.attempt++
	b.deadline += to
	b.sink.Event(Event{Time: b.deadline, Node: b.src, Peer: b.dst,
		Kind: EvTimedOut, Dur: to, Bytes: b.bytes, Cause: cause})
	b.sink.Event(Event{Time: b.deadline, Node: b.src, Peer: b.dst,
		Kind: EvRetry, Bytes: b.bytes, Cause: cause})
}

// injected reports one fault-plan intervention on the sender.
func (b *backoff) injected(at sim.Time, cause Cause, dur sim.Time) {
	b.sink.Event(Event{Time: at, Node: b.src, Peer: b.dst,
		Kind: EvFaultInjected, Dur: dur, Bytes: b.bytes, Cause: cause})
}

// resend walks n lost attempts of one kind (dropped in the network, or
// NACKed by the receiver's checksum) down the backoff chain and charges
// them to the sender.
func (b *backoff) resend(d *Delivery, n int, cause Cause) {
	if n == 0 {
		return
	}
	start := b.deadline
	for a := 0; a < n; a++ {
		b.step(cause)
	}
	d.FaultsInjected++
	d.Retries += uint64(n)
	b.injected(d.Issue, cause, b.deadline-start)
}

// PlanDelivery decides the fate of one remote message of the given size
// issued by src to dst at issue. It draws the message's verdict from
// in — the sender's injector lane, so draws depend only on that node's
// send order — and walks the recovery protocol in a fixed order:
//
//  1. A partition cutting the link at issue swallows every attempt until
//     it heals: backed-off timeouts fire until the retry budget runs out
//     or an attempt would land past the heal, and the effective issue
//     shifts to the heal instant. The hold spends no random draws.
//  2. Each dropped attempt costs one backed-off ack timeout.
//  3. Each corrupted attempt crosses the wire, fails the receiver's
//     checksum, is NACKed, and continues the same backoff chain.
//  4. A reorder verdict holds the message back in the network.
//  5. A dup verdict asks the transport for a second, trailing copy.
//
// With RetryPolicy.Jitter set, one uniform draw per message with lost or
// corrupted attempts scales every timeout of steps 2–3; the draw is
// gated on the verdict so unfaulted messages leave the random stream
// exactly as an unjittered run would.
//
// Recovery is accounted "god view": no clock is consulted and nothing is
// scheduled — the result says when the message lands, and sink receives
// the EvTimedOut/EvRetry/EvFaultInjected
// events the sender would have observed along the way. Retransmissions
// do not re-charge NIC serialisation, a deliberate model simplification.
// The function allocates nothing.
func PlanDelivery(in *faults.Injector, retry RetryPolicy, plan *faults.Plan,
	src, dst NodeID, bytes int, issue sim.Time, sink Sink) Delivery {
	v := in.Next(MaxRetries)
	d := Delivery{Issue: issue, Seq: v.Seq, Drops: v.Drops, Corrupts: v.Corrupts, Dup: v.Dup}
	b := backoff{sink: sink, src: src, dst: dst, bytes: bytes, deadline: issue}
	if heal := plan.PartitionUnblock(issue, int(src), int(dst)); heal > issue {
		for b.deadline < heal && b.attempt < MaxRetries {
			b.step(CausePartition)
		}
		d.FaultsInjected++
		d.Retries += uint64(b.attempt)
		b.injected(issue, CausePartition, heal-issue)
		d.Issue = heal
		b.attempt, b.deadline = 0, heal
	}
	if retry.Jitter > 0 && (v.Drops > 0 || v.Corrupts > 0) {
		b.scale = retry.JitterScale(in.Float64())
	}
	b.resend(&d, v.Drops, CauseDrop)
	b.resend(&d, v.Corrupts, CauseCorrupt)
	d.Delay = b.deadline - issue
	if v.Delay > 0 {
		d.FaultsInjected++
		b.injected(d.Issue, CauseDelay, v.Delay)
		d.Delay += v.Delay
	}
	if v.Dup {
		d.FaultsInjected++
		b.injected(d.Issue, CauseDup, 0)
	}
	return d
}
