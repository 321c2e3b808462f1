package earth

import (
	"encoding/json"
	"fmt"
	"strings"

	"earth/internal/sim"
)

// NodeStats accumulates per-node execution statistics during a run. It
// is the one declaration of the counter set: the JSON tags are the wire
// names (explicit snake_case, an explicit _ns suffix on times, the fault
// counters omitempty so clean-run artifacts are byte-identical to those of
// earlier versions), Add sums every field, and Stats.Total folds a run's
// nodes into one. The protocol core returns its counter deltas as a
// NodeStats for the engines to Add to the accounted node.
type NodeStats struct {
	// Busy is the total virtual (simrt) or measured (livert) time the
	// node spent executing threads and runtime overheads. Under simrt it
	// includes Synchronization-Unit/handler time, which runs concurrently
	// with the execution unit — a node saturating both can therefore
	// report Busy greater than the run's makespan.
	Busy sim.Time `json:"busy_ns"`
	// ThreadsRun counts dispatched thread bodies (including invoked and
	// token bodies).
	ThreadsRun uint64 `json:"threads_run"`
	// TokensRun counts token bodies executed on this node.
	TokensRun uint64 `json:"tokens_run"`
	// TokensStolen counts tokens this node obtained from other nodes.
	TokensStolen uint64 `json:"tokens_stolen"`
	// MsgsSent and BytesSent count network traffic originated here.
	MsgsSent  uint64 `json:"msgs_sent"`
	BytesSent uint64 `json:"bytes_sent"`
	// Syncs counts sync-slot signals processed on this node.
	Syncs uint64 `json:"syncs"`
	// FaultsInjected counts fault-plan interventions charged to this
	// node: dropped, duplicated or delayed messages it sent, and pause
	// windows it served. Zero without a fault plan.
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	// Retries counts modelled retransmissions of messages this node sent.
	Retries uint64 `json:"retries,omitempty"`
	// Recovered counts messages delivered here after at least one
	// dropped attempt.
	Recovered uint64 `json:"recovered,omitempty"`
	// DupsDropped counts duplicate deliveries suppressed here by the
	// sequence-numbered idempotent-delivery check.
	DupsDropped uint64 `json:"dups_dropped,omitempty"`
	// FramesReplayed counts checkpointed frames and queued threads this
	// node re-instantiated after another node's crash-stop failure.
	FramesReplayed uint64 `json:"frames_replayed,omitempty"`
	// TokensReassigned counts tokens re-placed on this node by the load
	// balancer after their owner crashed.
	TokensReassigned uint64 `json:"tokens_reassigned,omitempty"`
	// DetectionLatency is the failure-detector latency for this node's
	// own crash (crash-to-adoption); zero for nodes that stayed up.
	DetectionLatency sim.Time `json:"detection_latency_ns,omitempty"`
	// MsgsFenced counts stale-epoch messages this node rejected: late
	// traffic from a sender that had been declared dead (and its epoch
	// bumped) while merely partitioned.
	MsgsFenced uint64 `json:"msgs_fenced,omitempty"`
	// MsgsCorrupted counts transmissions whose checksum failed here,
	// each answered with a NACK and recovered by retransmission.
	MsgsCorrupted uint64 `json:"msgs_corrupted,omitempty"`
	// WrongVerdicts counts wrong death declarations this node issued as
	// the adopting successor: the "dead" peer was merely partitioned and
	// later rejoined.
	WrongVerdicts uint64 `json:"wrong_verdicts,omitempty"`
	// Rejoins counts reconciliation handshakes this node completed after
	// self-fencing during a partition that outlived its lease.
	Rejoins uint64 `json:"rejoins,omitempty"`
}

// Add accumulates d into n, field by field.
func (n *NodeStats) Add(d NodeStats) {
	n.Busy += d.Busy
	n.ThreadsRun += d.ThreadsRun
	n.TokensRun += d.TokensRun
	n.TokensStolen += d.TokensStolen
	n.MsgsSent += d.MsgsSent
	n.BytesSent += d.BytesSent
	n.Syncs += d.Syncs
	n.FaultsInjected += d.FaultsInjected
	n.Retries += d.Retries
	n.Recovered += d.Recovered
	n.DupsDropped += d.DupsDropped
	n.FramesReplayed += d.FramesReplayed
	n.TokensReassigned += d.TokensReassigned
	n.DetectionLatency += d.DetectionLatency
	n.MsgsFenced += d.MsgsFenced
	n.MsgsCorrupted += d.MsgsCorrupted
	n.WrongVerdicts += d.WrongVerdicts
	n.Rejoins += d.Rejoins
}

// Stats summarises one run.
type Stats struct {
	// Elapsed is the run's makespan: final virtual time under simrt,
	// wall-clock under livert.
	Elapsed sim.Time
	// Nodes holds per-node statistics.
	Nodes []NodeStats
	// Events is the number of simulator events dispatched (simrt only).
	Events uint64
	// Sanitize is the sync-contract scan of a Config.Sanitize run; nil
	// otherwise (and omitted from JSON, so unsanitized artifacts stay
	// byte-identical to earlier versions).
	Sanitize *SanitizeReport
}

// Total sums every counter across nodes: st.Total().Retries is the run's
// retransmission count, st.Total().MsgsSent its message count, and so on.
func (s *Stats) Total() NodeStats {
	var t NodeStats
	for i := range s.Nodes {
		t.Add(s.Nodes[i])
	}
	return t
}

// BusyFraction returns busy/elapsed clamped to [0,1]. The clamp matters
// under simrt, where Synchronization-Unit/handler time runs concurrently
// with the execution unit and a saturated node's Busy can exceed the
// makespan; an unclamped fraction would let one such node push a mean
// utilisation above 100%.
func BusyFraction(busy, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	f := float64(busy) / float64(elapsed)
	if f > 1 {
		return 1
	}
	return f
}

// Utilization returns the mean per-node busy fraction in [0,1], each
// node's fraction clamped by BusyFraction.
func (s *Stats) Utilization() float64 {
	if s.Elapsed <= 0 || len(s.Nodes) == 0 {
		return 0
	}
	var sum float64
	for i := range s.Nodes {
		sum += BusyFraction(s.Nodes[i].Busy, s.Elapsed)
	}
	return sum / float64(len(s.Nodes))
}

// statsJSON is the wire form of Stats: the stored scalars, the derived
// totals (omitempty like the per-node fault counters they sum) and the
// per-node counters under NodeStats' own tags.
type statsJSON struct {
	ElapsedNS   sim.Time        `json:"elapsed_ns"`
	Events      uint64          `json:"events,omitempty"`
	Utilization float64         `json:"utilization"`
	Threads     uint64          `json:"threads"`
	Msgs        uint64          `json:"msgs"`
	Bytes       uint64          `json:"bytes"`
	Steals      uint64          `json:"steals"`
	Faults      uint64          `json:"faults,omitempty"`
	Retries     uint64          `json:"retries,omitempty"`
	Recovered   uint64          `json:"recovered,omitempty"`
	DupsDropped uint64          `json:"dups_dropped,omitempty"`
	Replayed    uint64          `json:"frames_replayed,omitempty"`
	Reassigned  uint64          `json:"tokens_reassigned,omitempty"`
	Fenced      uint64          `json:"msgs_fenced,omitempty"`
	Corrupted   uint64          `json:"msgs_corrupted,omitempty"`
	Wrong       uint64          `json:"wrong_verdicts,omitempty"`
	Rejoins     uint64          `json:"rejoins,omitempty"`
	Nodes       []NodeStats     `json:"nodes"`
	Sanitize    *SanitizeReport `json:"sanitize,omitempty"`
}

// MarshalJSON exports the run summary machine-readably: per-node
// counters plus the derived totals, for the harness and cmd tools to
// write as diffable artifacts.
func (s *Stats) MarshalJSON() ([]byte, error) {
	t := s.Total()
	return json.Marshal(statsJSON{
		ElapsedNS:   s.Elapsed,
		Events:      s.Events,
		Utilization: s.Utilization(),
		Threads:     t.ThreadsRun,
		Msgs:        t.MsgsSent,
		Bytes:       t.BytesSent,
		Steals:      t.TokensStolen,
		Faults:      t.FaultsInjected,
		Retries:     t.Retries,
		Recovered:   t.Recovered,
		DupsDropped: t.DupsDropped,
		Replayed:    t.FramesReplayed,
		Reassigned:  t.TokensReassigned,
		Fenced:      t.MsgsFenced,
		Corrupted:   t.MsgsCorrupted,
		Wrong:       t.WrongVerdicts,
		Rejoins:     t.Rejoins,
		Nodes:       append([]NodeStats{}, s.Nodes...), // "nodes": [] for an empty run, never null
		Sanitize:    s.Sanitize,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON: it restores the per-node
// counters and the stored scalars (the derived totals are recomputed on
// demand), so exported artifacts round-trip.
func (s *Stats) UnmarshalJSON(b []byte) error {
	var w statsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Stats{Elapsed: w.ElapsedNS, Events: w.Events, Sanitize: w.Sanitize,
		Nodes: append([]NodeStats{}, w.Nodes...)}
	return nil
}

// String renders a compact single-run summary. The fault counters only
// appear when a fault plan actually intervened, keeping clean-run output
// stable.
func (s *Stats) String() string {
	var b strings.Builder
	t := s.Total()
	fmt.Fprintf(&b, "elapsed=%v nodes=%d threads=%d msgs=%d bytes=%d steals=%d util=%.2f",
		s.Elapsed, len(s.Nodes), t.ThreadsRun, t.MsgsSent, t.BytesSent,
		t.TokensStolen, s.Utilization())
	if t.FaultsInjected > 0 {
		fmt.Fprintf(&b, " faults=%d retries=%d recovered=%d", t.FaultsInjected, t.Retries, t.Recovered)
	}
	if t.FramesReplayed > 0 || t.TokensReassigned > 0 {
		fmt.Fprintf(&b, " replayed=%d reassigned=%d", t.FramesReplayed, t.TokensReassigned)
	}
	if t.WrongVerdicts > 0 || t.Rejoins > 0 {
		fmt.Fprintf(&b, " wrong_verdicts=%d fenced=%d rejoins=%d", t.WrongVerdicts, t.MsgsFenced, t.Rejoins)
	}
	if t.MsgsCorrupted > 0 {
		fmt.Fprintf(&b, " corrupted=%d", t.MsgsCorrupted)
	}
	if s.Sanitize != nil {
		if s.Sanitize.Clean() {
			b.WriteString(" sanitize=clean")
		} else {
			fmt.Fprintf(&b, " sanitize=%d finding(s)", len(s.Sanitize.Findings))
		}
	}
	return b.String()
}

// Bars draws a per-node summary of a run (earthsim -bars): a busy-
// fraction bar and the traffic counters for each node.
func (s *Stats) Bars() string {
	const width = 40
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %v over %d nodes, utilisation %.0f%%\n",
		s.Elapsed, len(s.Nodes), 100*s.Utilization())
	for i, n := range s.Nodes {
		// handler-path (SU) time can exceed the EU window; BusyFraction
		// clamps the fraction.
		frac := BusyFraction(n.Busy, s.Elapsed)
		fill := int(frac*width + 0.5)
		bar := strings.Repeat("#", fill) + strings.Repeat(".", width-fill)
		fmt.Fprintf(&b, "node %2d |%s| busy %6.1f%%  threads %6d  msgs %6d  steals %4d\n",
			i, bar, 100*frac, n.ThreadsRun, n.MsgsSent, n.TokensStolen)
	}
	return b.String()
}
