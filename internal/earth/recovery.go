package earth

import (
	"errors"
	"fmt"

	"earth/internal/faults"
	"earth/internal/sim"
)

// The modelled recovery protocol the engines apply when a fault plan is
// installed: every split-phase message (GET_SYNC/DATA_SYNC/BLKMOV legs,
// INVOKE, TOKEN shipping, sync signals, posts) is covered by a per-attempt
// acknowledgement timeout; a lost transmission is retransmitted after the
// timeout with capped exponential backoff (AttemptTimeout), at most
// MaxRetries times, and deliveries are sequence-numbered so duplicated or
// reordered copies are idempotent. Every experiment runs the protocol at
// these timings, so they are constants; RetryPolicy holds what runs vary.
//
// Under simrt the protocol is accounted in virtual time ("god view"): a
// message the fault plan dropped k times arrives at the sum of its first
// k attempt timeouts plus the final attempt's wire latency, and the
// tracer sees the matching EvTimedOut/EvRetry/EvRecovered events. Under
// livert the penalty is real wall-clock delay.
const (
	// RetryTimeout is the base per-attempt ack timeout, well above the
	// MANNA round trip so clean traffic never times out. A duplicated
	// message's second copy trails the first by it.
	RetryTimeout = 200 * sim.Microsecond
	// MaxRetries bounds retransmissions per message, and with it the
	// worst-case delivery delay: eight lost attempts cost 25.4 ms.
	MaxRetries = 8
	// MaxBackoff caps the backed-off timeout; attempts 5 to 7 wait it out.
	MaxBackoff = 32 * RetryTimeout
)

// RetryPolicy tunes the recovery protocol's failure detection and
// retransmit spread. ResolveFaults rejects a negative Lease and a Jitter
// outside [0,1).
type RetryPolicy struct {
	// Lease is the failure-detector lease: how long a node may stay
	// silent before survivors declare it crashed and adopt its
	// checkpointed frames and queued work. Messages in flight to a node
	// that crashed are held for the remainder of its lease (the sender's
	// heartbeat/ack timeout exposing the failure) and then re-routed to
	// the successor. 0: 5× RetryTimeout (1ms), long enough that transient
	// drop/backoff recovery never masquerades as a crash. A network
	// partition outliving the lease still produces a wrong verdict; the
	// epoch-fencing protocol below exists to make that verdict safe.
	Lease sim.Time
	// Jitter spreads retransmit timeouts by a seeded uniform factor in
	// [1-Jitter, 1+Jitter), so the synchronized retransmit storm after a
	// partition heals doesn't stampede one link. 0 (the default) disables
	// it. The factor is drawn from the fault injector's RNG stream, one
	// draw per faulted message, so jittered runs stay byte-reproducible
	// under simrt.
	Jitter float64
}

// Fencing and rejoin (the fallible-detector protocol):
//
// Every node carries a monotonically increasing incarnation epoch,
// stamped on each message it sends. When the detector's verdict is
// wrong — the lease expired but the node was merely partitioned — the
// survivors still adopt its frames and tokens (they cannot tell), and
// bump the node's epoch as they do. From that instant the old
// incarnation is fenced: any of its messages still in flight (or
// released when the partition heals) carries the stale epoch and is
// rejected by the receiver with a fencing NACK (EvFenced), so adopted
// frame state is never corrupted by a ghost. Symmetrically, the
// partitioned node outlives its own lease without hearing an ack,
// concludes the cluster has declared it dead, and self-fences: it halts,
// discards local in-flight work, and waits out the partition. At heal
// it runs a reconciliation handshake (EvRejoined) and re-enters at the
// bumped epoch as a steal-only worker — ownership of everything it used
// to home stays with the adopter, exactly as if it had crashed and a
// fresh node had joined.

// WithDefaults fills a zero lease with the default.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.Lease == 0 {
		p.Lease = 5 * RetryTimeout
	}
	return p
}

// validate rejects what WithDefaults would otherwise have to guess at.
func (p RetryPolicy) validate() error {
	if p.Lease < 0 {
		return fmt.Errorf("retry lease %v is negative", p.Lease)
	}
	if !(p.Jitter >= 0 && p.Jitter < 1) {
		return fmt.Errorf("retry jitter %v is outside [0,1)", p.Jitter)
	}
	return nil
}

// JitterScale turns one uniform draw u in [0,1) into the retransmit
// timeout multiplier 1 - Jitter + 2*Jitter*u, mean 1. With Jitter = 0
// the scale is exactly 1 and the engines skip the draw entirely, so
// policies from before jitter existed replay their exact random streams.
func (p RetryPolicy) JitterScale(u float64) float64 {
	return 1 - p.Jitter + 2*p.Jitter*u
}

// AttemptTimeout returns the ack timeout armed for the attempt-th
// transmission (0-based): RetryTimeout doubled per attempt, capped at
// MaxBackoff.
func AttemptTimeout(attempt int) sim.Time {
	d := RetryTimeout
	for i := 0; i < attempt && d < MaxBackoff; i++ {
		d *= 2
	}
	return min(d, MaxBackoff)
}

// FaultSetup is a Config's fault plan resolved against its machine size
// and retry policy: what an engine needs to know before its first
// message. The zero value means a clean run.
type FaultSetup struct {
	// Plan is the enabled fault plan, nil for a clean run.
	Plan *faults.Plan
	// Retry is the defaulted recovery policy.
	Retry RetryPolicy
	// CrashAt is the per-node crash schedule (-1 = never), nil when the
	// plan crashes nobody.
	CrashAt []sim.Time
	// Fences is the wrong-verdict schedule partitions outliving
	// Retry.Lease produce; empty when none does.
	Fences faults.Fences
}

// ResolveFaults resolves c's fault plan. It rejects a retry policy with a
// negative lease or a jitter outside [0,1), and plans that leave no node
// to adopt work: crash schedules killing every node, and partition
// schedules under which every node is at some instant (or eventually)
// fenced or crashed.
func (c Config) ResolveFaults() (FaultSetup, error) {
	if err := c.Retry.validate(); err != nil {
		return FaultSetup{}, err
	}
	if !c.Faults.Enabled() {
		return FaultSetup{}, nil
	}
	fs := FaultSetup{Plan: c.Faults, Retry: c.Retry.WithDefaults()}
	if c.Faults.HasCrash() {
		fs.CrashAt = c.Faults.CrashSchedule(c.Nodes)
		live := 0
		for _, at := range fs.CrashAt {
			if at < 0 {
				live++
			}
		}
		if live == 0 {
			return fs, errors.New("crash plan kills every node; at least one must survive")
		}
	}
	fs.Fences = c.Faults.PartitionFences(c.Nodes, fs.Retry.Lease)
	if err := c.Faults.CheckFences(c.Nodes, fs.Retry.Lease); err != nil {
		return fs, err
	}
	return fs, nil
}
