package earth

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"earth/internal/sim"
)

// This file is the runtime half of the sync-contract tooling (the static
// half is internal/analysis/framelint). With Config.Sanitize set, the
// engines attach a signal ledger to every frame they touch and, at
// quiescence, scan the ledgers for violations the static analyzer cannot
// prove: one-shot slots signalled past exhaustion, slots still armed
// when the program ended (the lost-thread deadlock shape) and installed
// thread bodies that never dispatched.
//
// The report is aggregated over structural facts only — finding kind,
// the frame's home node and shape, the slot or thread index, and the
// violation count — never timestamps, allocation order or the order in
// which the engine first met the frames. Coalescing changes virtual
// times, but not which frames exist or how their slots end up, so the
// marshalled report is byte-identical across coalesce modes.

// SanitizeKind classifies one class of sync-contract violation.
type SanitizeKind uint8

const (
	// SanOverflow: a sync signal arrived at an exhausted one-shot slot.
	// Without Sanitize this is the "sync on exhausted one-shot slot"
	// panic; Count is the number of swallowed signals.
	SanOverflow SanitizeKind = iota
	// SanPendingSlot: a one-shot slot was still armed at quiescence — the
	// signals its InitSync count promised never all arrived, so the
	// enabled thread was silently lost. Count is the residual counter.
	SanPendingSlot
	// SanThreadNeverRan: an installed thread body never dispatched.
	SanThreadNeverRan

	numSanitizeKinds
)

var sanitizeKindNames = [numSanitizeKinds]string{
	SanOverflow:       "slot-overflow",
	SanPendingSlot:    "pending-slot",
	SanThreadNeverRan: "thread-never-ran",
}

func (k SanitizeKind) String() string {
	if int(k) < len(sanitizeKindNames) {
		return sanitizeKindNames[k]
	}
	return "unknown"
}

// sanitizeKindByName inverts SanitizeKind.String for UnmarshalJSON.
func sanitizeKindByName(name string) (SanitizeKind, bool) {
	for k, n := range sanitizeKindNames {
		if n == name {
			return SanitizeKind(k), true
		}
	}
	return 0, false
}

// SanitizeFinding is one aggregated violation: every frame with the same
// home, shape, index and count folds into a single finding with Frames
// incremented, which is what makes the report independent of the order
// the engines discovered the frames in.
type SanitizeFinding struct {
	// Kind classifies the violation.
	Kind SanitizeKind
	// Home is the offending frame's home node.
	Home NodeID
	// Threads and Slots are the frame's shape, to identify the
	// allocation site without relying on runtime ordering.
	Threads, Slots int
	// Index is the slot (or, for SanThreadNeverRan, thread) involved.
	Index int
	// Count is the violation magnitude per frame: swallowed signals
	// (SanOverflow), residual counter (SanPendingSlot); zero for
	// SanThreadNeverRan.
	Count int64
	// Frames is how many identical frames merged into this finding.
	Frames int
}

func (f SanitizeFinding) String() string {
	s := fmt.Sprintf("%v: frame home=%d shape=%dt/%ds index=%d",
		f.Kind, f.Home, f.Threads, f.Slots, f.Index)
	if f.Count != 0 {
		s += fmt.Sprintf(" count=%d", f.Count)
	}
	if f.Frames > 1 {
		s += fmt.Sprintf(" x%d frames", f.Frames)
	}
	return s
}

// SanitizeReport is the end-of-run summary of a sanitized execution.
type SanitizeReport struct {
	// FramesTracked and SlotsTracked size the scan: frames the engines
	// touched (and therefore ledgered) and their summed slot counts.
	FramesTracked int
	SlotsTracked  int
	// Findings is the aggregated violation list in canonical order;
	// empty for a contract-clean run.
	Findings []SanitizeFinding
}

// Clean reports whether the scan found no violations.
func (r *SanitizeReport) Clean() bool { return r != nil && len(r.Findings) == 0 }

// String renders the report, one finding per line.
func (r *SanitizeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sanitize: frames=%d slots=%d findings=%d\n",
		r.FramesTracked, r.SlotsTracked, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// sanitizeFindingJSON and sanitizeReportJSON are the wire forms, in the
// same explicit snake_case style as statsJSON.
type sanitizeFindingJSON struct {
	Kind    string `json:"kind"`
	Home    NodeID `json:"home"`
	Threads int    `json:"threads"`
	Slots   int    `json:"slots"`
	Index   int    `json:"index"`
	Count   int64  `json:"count,omitempty"`
	Frames  int    `json:"frames"`
}

type sanitizeReportJSON struct {
	FramesTracked int                   `json:"frames_tracked"`
	SlotsTracked  int                   `json:"slots_tracked"`
	Findings      []sanitizeFindingJSON `json:"findings,omitempty"`
}

// MarshalJSON exports the report as a diffable artifact; the canonical
// finding order makes equal scans byte-identical.
func (r *SanitizeReport) MarshalJSON() ([]byte, error) {
	w := sanitizeReportJSON{FramesTracked: r.FramesTracked, SlotsTracked: r.SlotsTracked}
	for _, f := range r.Findings {
		w.Findings = append(w.Findings, sanitizeFindingJSON{
			Kind: f.Kind.String(), Home: f.Home, Threads: f.Threads,
			Slots: f.Slots, Index: f.Index, Count: f.Count, Frames: f.Frames,
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a marshalled report, so stats artifacts
// round-trip.
func (r *SanitizeReport) UnmarshalJSON(b []byte) error {
	var w sanitizeReportJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	r.FramesTracked = w.FramesTracked
	r.SlotsTracked = w.SlotsTracked
	r.Findings = nil
	for _, f := range w.Findings {
		k, ok := sanitizeKindByName(f.Kind)
		if !ok {
			return fmt.Errorf("earth: unknown sanitize finding kind %q", f.Kind)
		}
		r.Findings = append(r.Findings, SanitizeFinding{
			Kind: k, Home: f.Home, Threads: f.Threads,
			Slots: f.Slots, Index: f.Index, Count: f.Count, Frames: f.Frames,
		})
	}
	return nil
}

// BuildSanitizeReport scans the signal ledgers of every frame an engine
// registered during a sanitized run. Aggregation is a pure function of
// the frames' final states, so callers may pass the slice in any order.
func BuildSanitizeReport(frames []*Frame) *SanitizeReport {
	r := &SanitizeReport{}
	counts := map[SanitizeFinding]int{}
	add := func(k SanitizeKind, f *Frame, idx int, c int64) {
		counts[SanitizeFinding{Kind: k, Home: f.Home,
			Threads: len(f.threads), Slots: len(f.slots), Index: idx, Count: c}]++
	}
	for _, f := range frames {
		if f == nil || f.san == nil {
			continue
		}
		r.FramesTracked++
		r.SlotsTracked += len(f.slots)
		for s := range f.slots {
			sl := &f.slots[s]
			if n := f.san.overflow[s]; n > 0 {
				add(SanOverflow, f, s, int64(n))
			}
			if sl.inited && sl.reset == 0 && sl.count > 0 {
				add(SanPendingSlot, f, s, int64(sl.count))
			}
		}
		for t := range f.threads {
			if f.threads[t] != nil && !f.san.ran[t] {
				add(SanThreadNeverRan, f, t, 0)
			}
		}
	}
	//detlint:allow the canonical sort below erases map iteration order before anything observes Findings
	for k, n := range counts {
		k.Frames = n
		r.Findings = append(r.Findings, k)
	}
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := &r.Findings[i], &r.Findings[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Home != b.Home {
			return a.Home < b.Home
		}
		if a.Threads != b.Threads {
			return a.Threads < b.Threads
		}
		if a.Slots != b.Slots {
			return a.Slots < b.Slots
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Count < b.Count
	})
	return r
}

// SanLedger is one node's share of a sanitized run's frame ledger: the
// frames first touched on that node's execution context. Every
// engine-mediated frame operation runs there (crash adoption moves the
// context wholesale), so a node's ledger is written by one executor only.
// The zero value tracks nothing.
type SanLedger struct {
	on     bool
	frames []*Frame
}

// Reset empties the ledger for a run, which it tracks when on
// (Config.Sanitize).
func (l *SanLedger) Reset(on bool) {
	l.on = on
	l.drop()
}

// drop forgets the ledgered frames and keeps the capacity: an idle runtime
// must not keep its last run's frames, and their threads, alive.
func (l *SanLedger) drop() {
	clear(l.frames)
	l.frames = l.frames[:0]
}

// Track attaches the signal ledger to f on its first engine contact and
// records f for the end-of-run scan. The Sanitized check keeps a frame
// from registering twice, also across a crash adoption.
func (l *SanLedger) Track(f *Frame) {
	if !l.on || f == nil || f.Sanitized() {
		return
	}
	f.BeginSanitize()
	l.frames = append(l.frames, f)
}

// ScanLedgers is the engines' end-of-run sanitizer step: sanitizeScan over
// the frames of every node's ledger, gathered in node order, which leaves
// the ledgers empty. It returns nil, and emits nothing, for a run that was
// not sanitized.
func ScanLedgers[N any](nodes []N, ledger func(N) *SanLedger, makespan sim.Time, sink Sink) *SanitizeReport {
	var frames []*Frame
	for _, n := range nodes {
		l := ledger(n)
		if !l.on {
			return nil
		}
		frames = append(frames, l.frames...)
		l.drop()
	}
	return sanitizeScan(frames, makespan, sink)
}

// sanitizeScan builds the report over the frames a run ledgered and
// reports every finding to sink as an EvSanitize event at the run's
// makespan.
func sanitizeScan(frames []*Frame, makespan sim.Time, sink Sink) *SanitizeReport {
	rep := BuildSanitizeReport(frames)
	for _, fd := range rep.Findings {
		sink.Event(Event{Time: makespan, Node: fd.Home, Peer: NoPeer,
			Kind: EvSanitize, Bytes: fd.Index, Dur: sim.Time(fd.Count)})
	}
	return rep
}
