package earth

import (
	"encoding/json"
	"fmt"
	"strings"

	"earth/internal/sim"
)

// NodeStats accumulates per-node execution statistics during a run.
type NodeStats struct {
	// Busy is the total virtual (simrt) or measured (livert) time the
	// node spent executing threads and runtime overheads. Under simrt it
	// includes Synchronization-Unit/handler time, which runs concurrently
	// with the execution unit — a node saturating both can therefore
	// report Busy greater than the run's makespan.
	Busy sim.Time
	// ThreadsRun counts dispatched thread bodies (including invoked and
	// token bodies).
	ThreadsRun uint64
	// TokensRun counts token bodies executed on this node.
	TokensRun uint64
	// TokensStolen counts tokens this node obtained from other nodes.
	TokensStolen uint64
	// MsgsSent and BytesSent count network traffic originated here.
	MsgsSent  uint64
	BytesSent uint64
	// Syncs counts sync-slot signals processed on this node.
	Syncs uint64
	// FaultsInjected counts fault-plan interventions charged to this
	// node: dropped, duplicated or delayed messages it sent, and pause
	// windows it served. Zero without a fault plan.
	FaultsInjected uint64
	// Retries counts modelled retransmissions of messages this node sent.
	Retries uint64
	// Recovered counts messages delivered here after at least one
	// dropped attempt.
	Recovered uint64
	// DupsDropped counts duplicate deliveries suppressed here by the
	// sequence-numbered idempotent-delivery check.
	DupsDropped uint64
	// FramesReplayed counts checkpointed frames and queued threads this
	// node re-instantiated after another node's crash-stop failure.
	FramesReplayed uint64
	// TokensReassigned counts tokens re-placed on this node by the load
	// balancer after their owner crashed.
	TokensReassigned uint64
	// DetectionLatency is the failure-detector latency for this node's
	// own crash (crash-to-adoption); zero for nodes that stayed up.
	DetectionLatency sim.Time
	// MsgsFenced counts stale-epoch messages this node rejected: late
	// traffic from a sender that had been declared dead (and its epoch
	// bumped) while merely partitioned.
	MsgsFenced uint64
	// MsgsCorrupted counts transmissions whose checksum failed here,
	// each answered with a NACK and recovered by retransmission.
	MsgsCorrupted uint64
	// WrongVerdicts counts wrong death declarations this node issued as
	// the adopting successor: the "dead" peer was merely partitioned and
	// later rejoined.
	WrongVerdicts uint64
	// Rejoins counts reconciliation handshakes this node completed after
	// self-fencing during a partition that outlived its lease.
	Rejoins uint64
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

// TotalMsgs sums messages across nodes.
func (s *Stats) TotalMsgs() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].MsgsSent
	}
	return n
}

// TotalBytes sums bytes across nodes.
func (s *Stats) TotalBytes() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].BytesSent
	}
	return n
}

// TotalThreads sums dispatched threads across nodes.
func (s *Stats) TotalThreads() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].ThreadsRun
	}
	return n
}

// TotalSteals sums stolen tokens across nodes.
func (s *Stats) TotalSteals() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].TokensStolen
	}
	return n
}

// TotalFaults sums fault-plan interventions across nodes.
func (s *Stats) TotalFaults() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].FaultsInjected
	}
	return n
}

// TotalRetries sums modelled retransmissions across nodes.
func (s *Stats) TotalRetries() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].Retries
	}
	return n
}

// TotalRecovered sums recovered deliveries across nodes.
func (s *Stats) TotalRecovered() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].Recovered
	}
	return n
}

// TotalReplayed sums crash-recovery frame replays across nodes.
func (s *Stats) TotalReplayed() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].FramesReplayed
	}
	return n
}

// TotalReassigned sums crash-recovery token re-placements across nodes.
func (s *Stats) TotalReassigned() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].TokensReassigned
	}
	return n
}

// TotalFenced sums stale-epoch message rejections across nodes.
func (s *Stats) TotalFenced() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].MsgsFenced
	}
	return n
}

// TotalCorrupted sums checksum-detected corruptions across nodes.
func (s *Stats) TotalCorrupted() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].MsgsCorrupted
	}
	return n
}

// TotalWrongVerdicts sums wrong death declarations across nodes.
func (s *Stats) TotalWrongVerdicts() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].WrongVerdicts
	}
	return n
}

// TotalRejoins sums post-partition reconciliation handshakes across nodes.
func (s *Stats) TotalRejoins() uint64 {
	var n uint64
	for i := range s.Nodes {
		n += s.Nodes[i].Rejoins
	}
	return n
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

// nodeStatsJSON is the wire form of NodeStats: explicit snake_case names
// and an explicit _ns suffix on times, so exported artifacts stay
// readable and diffable.
type nodeStatsJSON struct {
	BusyNS           sim.Time `json:"busy_ns"`
	ThreadsRun       uint64   `json:"threads_run"`
	TokensRun        uint64   `json:"tokens_run"`
	TokensStolen     uint64   `json:"tokens_stolen"`
	MsgsSent         uint64   `json:"msgs_sent"`
	BytesSent        uint64   `json:"bytes_sent"`
	Syncs            uint64   `json:"syncs"`
	FaultsInjected   uint64   `json:"faults_injected,omitempty"`
	Retries          uint64   `json:"retries,omitempty"`
	Recovered        uint64   `json:"recovered,omitempty"`
	DupsDropped      uint64   `json:"dups_dropped,omitempty"`
	FramesReplayed   uint64   `json:"frames_replayed,omitempty"`
	TokensReassigned uint64   `json:"tokens_reassigned,omitempty"`
	DetectionLatency sim.Time `json:"detection_latency_ns,omitempty"`
	MsgsFenced       uint64   `json:"msgs_fenced,omitempty"`
	MsgsCorrupted    uint64   `json:"msgs_corrupted,omitempty"`
	WrongVerdicts    uint64   `json:"wrong_verdicts,omitempty"`
	Rejoins          uint64   `json:"rejoins,omitempty"`
}

// statsJSON is the wire form of Stats: per-node counters plus derived
// totals. The fault counters are omitempty, so clean-run artifacts are
// byte-identical to those of earlier versions.
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
	Nodes       []nodeStatsJSON `json:"nodes"`
	Sanitize    *SanitizeReport `json:"sanitize,omitempty"`
}

// MarshalJSON exports the run summary machine-readably: per-node
// counters plus the derived totals, for the harness and cmd tools to
// write as diffable artifacts.
func (s *Stats) MarshalJSON() ([]byte, error) {
	nodes := make([]nodeStatsJSON, len(s.Nodes))
	var dups uint64
	for i, n := range s.Nodes {
		nodes[i] = nodeStatsJSON{
			BusyNS:           n.Busy,
			ThreadsRun:       n.ThreadsRun,
			TokensRun:        n.TokensRun,
			TokensStolen:     n.TokensStolen,
			MsgsSent:         n.MsgsSent,
			BytesSent:        n.BytesSent,
			Syncs:            n.Syncs,
			FaultsInjected:   n.FaultsInjected,
			Retries:          n.Retries,
			Recovered:        n.Recovered,
			DupsDropped:      n.DupsDropped,
			FramesReplayed:   n.FramesReplayed,
			TokensReassigned: n.TokensReassigned,
			DetectionLatency: n.DetectionLatency,
			MsgsFenced:       n.MsgsFenced,
			MsgsCorrupted:    n.MsgsCorrupted,
			WrongVerdicts:    n.WrongVerdicts,
			Rejoins:          n.Rejoins,
		}
		dups += n.DupsDropped
	}
	return json.Marshal(statsJSON{
		ElapsedNS:   s.Elapsed,
		Events:      s.Events,
		Utilization: s.Utilization(),
		Threads:     s.TotalThreads(),
		Msgs:        s.TotalMsgs(),
		Bytes:       s.TotalBytes(),
		Steals:      s.TotalSteals(),
		Faults:      s.TotalFaults(),
		Retries:     s.TotalRetries(),
		Recovered:   s.TotalRecovered(),
		DupsDropped: dups,
		Replayed:    s.TotalReplayed(),
		Reassigned:  s.TotalReassigned(),
		Fenced:      s.TotalFenced(),
		Corrupted:   s.TotalCorrupted(),
		Wrong:       s.TotalWrongVerdicts(),
		Rejoins:     s.TotalRejoins(),
		Nodes:       nodes,
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
	s.Elapsed = w.ElapsedNS
	s.Events = w.Events
	s.Sanitize = w.Sanitize
	s.Nodes = make([]NodeStats, len(w.Nodes))
	for i, n := range w.Nodes {
		s.Nodes[i] = NodeStats{
			Busy:             n.BusyNS,
			ThreadsRun:       n.ThreadsRun,
			TokensRun:        n.TokensRun,
			TokensStolen:     n.TokensStolen,
			MsgsSent:         n.MsgsSent,
			BytesSent:        n.BytesSent,
			Syncs:            n.Syncs,
			FaultsInjected:   n.FaultsInjected,
			Retries:          n.Retries,
			Recovered:        n.Recovered,
			DupsDropped:      n.DupsDropped,
			FramesReplayed:   n.FramesReplayed,
			TokensReassigned: n.TokensReassigned,
			DetectionLatency: n.DetectionLatency,
			MsgsFenced:       n.MsgsFenced,
			MsgsCorrupted:    n.MsgsCorrupted,
			WrongVerdicts:    n.WrongVerdicts,
			Rejoins:          n.Rejoins,
		}
	}
	return nil
}

// String renders a compact single-run summary. The fault counters only
// appear when a fault plan actually intervened, keeping clean-run output
// stable.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%v nodes=%d threads=%d msgs=%d bytes=%d steals=%d util=%.2f",
		s.Elapsed, len(s.Nodes), s.TotalThreads(), s.TotalMsgs(), s.TotalBytes(),
		s.TotalSteals(), s.Utilization())
	if f := s.TotalFaults(); f > 0 {
		fmt.Fprintf(&b, " faults=%d retries=%d recovered=%d", f, s.TotalRetries(), s.TotalRecovered())
	}
	if r, t := s.TotalReplayed(), s.TotalReassigned(); r > 0 || t > 0 {
		fmt.Fprintf(&b, " replayed=%d reassigned=%d", r, t)
	}
	if w, j := s.TotalWrongVerdicts(), s.TotalRejoins(); w > 0 || j > 0 {
		fmt.Fprintf(&b, " wrong_verdicts=%d fenced=%d rejoins=%d", w, s.TotalFenced(), j)
	}
	if c := s.TotalCorrupted(); c > 0 {
		fmt.Fprintf(&b, " corrupted=%d", c)
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
