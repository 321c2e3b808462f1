// Package manna models the MANNA distributed-memory machine that EARTH was
// first implemented on: up to 20 nodes (two i860 XP CPUs each, the
// experiments in the paper use the single-processor EARTH configuration),
// 32 MB of local memory per node, and a 50 MB/s communication network built
// from hierarchically organised 16-way crossbars.
//
// The model captures the properties the paper's results depend on:
//
//   - a transfer-time law: per-hop wire latency plus bytes/bandwidth,
//   - a hierarchical crossbar topology that determines the hop count
//     between two nodes,
//   - per-node NIC serialisation: a node's network interface transmits one
//     message at a time, so bursts of messages from one node queue behind
//     each other (this is what makes centralised communication patterns,
//     e.g. the neural-network broadcast, expensive).
//
// Absolute constants default to the published MANNA figures but every one
// of them is configurable, which is what the harness uses to sweep
// communication-cost scenarios.
package manna

import (
	"fmt"
	"math"

	"earth/internal/sim"
)

// Config describes a MANNA-like machine.
type Config struct {
	// Nodes is the number of processing nodes.
	Nodes int
	// BandwidthBytesPerSec is the per-link network bandwidth. MANNA: 50 MB/s.
	BandwidthBytesPerSec float64
	// HopLatency is the wire/switch latency added per crossbar hop.
	HopLatency sim.Time
	// CrossbarPorts is the arity of one crossbar. Nodes 0..CrossbarPorts-1
	// share a first-level crossbar; larger machines add a second level.
	// MANNA: 16.
	CrossbarPorts int
}

// Default returns the published MANNA configuration with n nodes.
func Default(n int) Config {
	return Config{
		Nodes:                n,
		BandwidthBytesPerSec: 50e6,
		HopLatency:           sim.Microsecond / 2, // 0.5 us per switch stage
		CrossbarPorts:        16,
	}
}

// SP2 returns a machine model of the IBM SP2 the paper says EARTH was
// being ported to: a multistage Omega-style switch with higher per-hop
// latency and ~35 MB/s sustained node bandwidth (published TB2 adapter
// figures).
func SP2(n int) Config {
	return Config{
		Nodes:                n,
		BandwidthBytesPerSec: 35e6,
		HopLatency:           5 * sim.Microsecond,
		CrossbarPorts:        16,
	}
}

// Myrinet returns a model of the paper's other port target, a SUN cluster
// on a Myrinet switch: ~8 µs switch traversals at higher link bandwidth.
func Myrinet(n int) Config {
	return Config{
		Nodes:                n,
		BandwidthBytesPerSec: 80e6,
		HopLatency:           8 * sim.Microsecond,
		CrossbarPorts:        8,
	}
}

// Validate reports an error for physically meaningless configurations.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("manna: Nodes = %d, need >= 1", c.Nodes)
	}
	// NaN fails every comparison, so a plain <= 0 test would wave NaN
	// through and every TxTime would come out NaN; +Inf would silently
	// zero all transfer times. Reject both as configuration errors.
	if !(c.BandwidthBytesPerSec > 0) || math.IsInf(c.BandwidthBytesPerSec, 0) {
		return fmt.Errorf("manna: bandwidth must be positive and finite, got %g", c.BandwidthBytesPerSec)
	}
	if c.HopLatency < 0 {
		return fmt.Errorf("manna: negative hop latency %v", c.HopLatency)
	}
	if c.CrossbarPorts < 2 {
		return fmt.Errorf("manna: CrossbarPorts = %d, need >= 2", c.CrossbarPorts)
	}
	return nil
}

// MinRemoteLatency returns a lower bound on the wire time of any remote
// (src != dst) message: the cheapest route is a single first-level
// crossbar hop carrying the smallest possible payload. Every real message
// is at least one byte (in practice >= the runtime's header), traverses
// at least one switch stage (Validate enforces CrossbarPorts >= 2, so two
// distinct nodes are never zero hops apart), and link degradation only
// ever stretches wire time (SetLinkScale ignores factors <= 1). The bound
// is therefore conservative under every fault plan, which is what lets
// simrt use it as its window width: a message issued at or after time T
// cannot arrive anywhere before T + MinRemoteLatency.
//
// Degenerate 1-node machines have no remote pairs at all; the bound is
// still returned (and still positive) so callers can use it uniformly.
func (c Config) MinRemoteLatency() sim.Time {
	lb := c.HopLatency + c.TxTime(1)
	if lb < 1 {
		lb = 1 // never zero: a zero lookahead would collapse the window
	}
	return lb
}

// HeaderBytes is the fixed wire-header size of one runtime message (and
// of one coalesced batch — the whole point of batching is that merged
// messages share a single header). It matches the header both engines
// charge on every transfer.
const HeaderBytes = 16

// ChecksumBytes is the wire cost of the end-to-end integrity checksum a
// message (or one coalesced batch — the batch shares one checksum like it
// shares one header) carries when the fault plan can corrupt payloads
// (corrupt= in the -faults grammar). Plans without corruption pay
// nothing, so every pre-existing golden is untouched; plans with it
// charge the serialisation of these extra bytes on each transfer, which
// is how the paper-style accounting sees the integrity tax.
const ChecksumBytes = 4

// BatchCost returns the wire time of one coalesced batch of n messages
// carrying payloadBytes of summed payload from src to dst: a single
// per-message header plus the summed serialisation, instead of n full
// headers. For a 1-message batch this equals the wire time of the
// unbatched message (WireTime of payload+header), so coalescing is never
// modelled as a penalty; and because every remote batch still carries at
// least the header across at least one hop, the result is always >=
// MinRemoteLatency for src != dst — simrt's window width stays a lower
// bound on arrivals with batching enabled. The n parameter is the batch's message count;
// it does not change the wire time (the saving is exactly the n-1
// elided headers and hop traversals) but documents the call sites and
// anchors the boundary-case tests. Negative payloads count as empty.
func (c Config) BatchCost(src, dst, n, payloadBytes int) sim.Time {
	_ = n
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	return c.WireTime(src, dst, payloadBytes+HeaderBytes)
}

// Hops returns the number of crossbar stages a message from src to dst
// traverses. Same node: 0 (local). Same first-level crossbar: 1. Otherwise
// the message climbs through the second-level crossbar: 3 stages
// (up, across, down) — the hierarchical organisation described in [Giloi96].
func (c Config) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	if src/c.CrossbarPorts == dst/c.CrossbarPorts {
		return 1
	}
	return 3
}

// WireTime returns the pure network time needed to move nbytes from src
// to dst (excluding any software overhead at sender or receiver): per-hop
// switch latency plus serialisation at link bandwidth.
func (c Config) WireTime(src, dst, nbytes int) sim.Time {
	if src == dst {
		return 0
	}
	lat := sim.Time(c.Hops(src, dst)) * c.HopLatency
	return lat + c.TxTime(nbytes)
}

// TxTime returns the time the NIC needs to clock nbytes onto the link.
func (c Config) TxTime(nbytes int) sim.Time {
	if nbytes <= 0 {
		return 0
	}
	ns := float64(nbytes) / c.BandwidthBytesPerSec * 1e9
	return sim.Time(ns)
}

// Machine is a runtime instance of a Config: it tracks the dynamic NIC
// state of every node so that concurrent sends from one node serialise.
type Machine struct {
	cfg       Config
	nicFreeAt []sim.Time
	// linkScale, when set, multiplies wire time per send (transient link
	// degradation from a fault plan). See SetLinkScale.
	linkScale func(at sim.Time, src, dst int) float64
}

// New builds a Machine. It panics on an invalid Config, since a machine is
// always constructed from code (not user input) in this library.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{cfg: cfg, nicFreeAt: make([]sim.Time, cfg.Nodes)}
}

// Send computes the arrival time of a message of nbytes from src to dst
// whose software send-side processing completes at time ready. It advances
// src's NIC reservation: if the NIC is still transmitting an earlier
// message, this one queues behind it.
//
// A local "message" (src == dst) does not touch the NIC and arrives
// immediately at ready.
func (m *Machine) Send(ready sim.Time, src, dst, nbytes int) (arrival sim.Time) {
	if src == dst {
		return ready
	}
	start := ready
	if m.nicFreeAt[src] > start {
		start = m.nicFreeAt[src]
	}
	tx := m.cfg.TxTime(nbytes)
	lat := sim.Time(m.cfg.Hops(src, dst)) * m.cfg.HopLatency
	if m.linkScale != nil {
		if s := m.linkScale(start, src, dst); s > 1 {
			tx = sim.Time(float64(tx) * s)
			lat = sim.Time(float64(lat) * s)
		}
	}
	m.nicFreeAt[src] = start + tx
	return start + tx + lat
}

// SetLinkScale installs a wire-time multiplier consulted on every remote
// send with the transmission start time and endpoints. Factors > 1
// stretch both the serialisation time (occupying the NIC longer) and the
// hop latency; factors <= 1 are ignored. A fault plan's LinkScale method
// matches this signature. Pass nil to remove.
func (m *Machine) SetLinkScale(fn func(at sim.Time, src, dst int) float64) {
	m.linkScale = fn
}

// Reset clears dynamic state so the machine can be reused for another run.
func (m *Machine) Reset() {
	clear(m.nicFreeAt)
}
