// The run loop: windows and barriers.
//
// Run drives one event queue, but not straight through. It repeatedly
//
//  1. reads the earliest pending event time tmin,
//  2. executes every event before the window end tmin + lookahead (clamped
//     to the next crash/detection/fence/heal boundary),
//  3. at the barrier, inserts the window's outboxed cross-node messages in a
//     canonical order, matches hungry thieves to victims, emits due
//     utilisation samples, and applies due boundaries.
//
// The cadence is part of the simulated machine, not of the host program:
// the lookahead is manna.Config.MinRemoteLatency(), a constant of the
// network model, and every barrier is a simulated instant — it is when an
// idle node's steal request goes out and when a steal miss comes back —
// so widening, skipping or merging windows changes simulated times.
// Mid-window a node mutates only its own state; every cross-node effect is
// an outboxed message that enters the queue at the barrier in (arrival,
// sender, issue-order) order, so events of one instant run in an order
// that depends on per-node execution alone.
package simrt

import (
	"cmp"
	"slices"
	"sort"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// outboxEntry is one cross-node message awaiting the barrier. The (at,
// from, seq) triple orders entries canonically: seq is the sender node's
// own issue counter, so the order in which a barrier's messages enter the
// queue depends only on per-node execution.
type outboxEntry struct {
	at   sim.Time
	from earth.NodeID
	seq  uint64
	m    *msg
}

// missNote records that a steal request missed at a victim; the thief
// learns of it, and can be re-matched, at the next barrier.
type missNote struct {
	at    sim.Time
	thief earth.NodeID
}

// boundary is one instant of the precomputed failure schedule. Windows
// never simulate across a boundary: crashes, detections, fences and heals
// mutate state machine-wide (routing, adoption, token reassignment, epoch
// bumps), so they run between windows, with every event before their
// instant executed and none after it.
type boundary struct {
	at   sim.Time
	kind uint8
	node int
	// ref is the boundary's reference instant: a heal carries its fence's
	// At so EvRejoined can report how long the node was fenced.
	ref sim.Time
}

const (
	bCrash uint8 = iota
	bDetect
	bHeal
	bFence
)

// makeBoundaries expands the crash and fence schedules into one sorted
// boundary list: for each doomed node, its crash instant and its detection
// instant one lease later; for each wrong partition verdict, its fence
// instant (one lease past the partition start) and its heal. Within one
// instant the kind order is crash < detect < heal < fence — a node's
// failure exists before any survivor can have observed it, and a heal
// completes before a back-to-back second window re-fences the node.
func makeBoundaries(crashAt []sim.Time, fences []faults.Fence, lease sim.Time) []boundary {
	var bs []boundary
	for i, at := range crashAt {
		if at < 0 {
			continue
		}
		bs = append(bs, boundary{at: at, kind: bCrash, node: i})
		bs = append(bs, boundary{at: at + lease, kind: bDetect, node: i})
	}
	for _, f := range fences {
		bs = append(bs, boundary{at: f.At, kind: bFence, node: f.Node, ref: f.At})
		bs = append(bs, boundary{at: f.Heal, kind: bHeal, node: f.Node, ref: f.At})
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].at != bs[j].at {
			return bs[i].at < bs[j].at
		}
		if bs[i].kind != bs[j].kind {
			return bs[i].kind < bs[j].kind
		}
		return bs[i].node < bs[j].node
	})
	return bs
}

// runWindows drives one Run to quiescence.
func (rt *Runtime) runWindows() {
	var vnow sim.Time
	bi := 0
	for {
		rt.barrier(vnow)
		// Every outboxed message is in the queue now, so Peek is the
		// machine's earliest pending instant.
		tmin, ok := rt.eng.Peek()
		haveB := bi < len(rt.boundaries)
		if !ok && !haveB {
			return
		}
		// Apply a due boundary before opening the next window. Boundaries
		// past quiescence still apply (a machine with pending crash leases
		// is not done), which keeps Elapsed covering the full schedule.
		if haveB && (!ok || rt.boundaries[bi].at <= tmin) {
			b := rt.boundaries[bi]
			bi++
			rt.bApplied++
			if b.at > rt.maxExec {
				rt.maxExec = b.at
			}
			switch b.kind {
			case bCrash:
				rt.applyCrash(b)
			case bDetect:
				rt.applyDetect(b)
			case bFence:
				rt.applyFence(b)
			case bHeal:
				rt.applyHeal(b)
			}
			vnow = b.at
			continue
		}
		end := tmin + rt.lookahead
		if haveB && rt.boundaries[bi].at < end {
			end = rt.boundaries[bi].at
		}
		rt.atBarrier = false
		rt.eng.RunBefore(end)
		rt.atBarrier = true
		if t := rt.eng.Now(); t > rt.maxExec {
			rt.maxExec = t
		}
		vnow = end
	}
}

// barrier is the between-window work, in a fixed order:
//
//  1. insert the window's outboxed messages into the queue in canonical
//     order,
//  2. deliver steal-miss notes (re-arming thieves for matching),
//  3. emit utilisation samples due up to the executed horizon,
//  4. match hungry thieves to steal victims.
func (rt *Runtime) barrier(vnow sim.Time) {
	// Both sorts below have unique keys, so the order does not depend on
	// the algorithm; most barriers have nothing to sort at all.
	if len(rt.outbox) > 1 {
		slices.SortFunc(rt.outbox, func(a, b outboxEntry) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if c := cmp.Compare(a.from, b.from); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	for i := range rt.outbox {
		e := &rt.outbox[i]
		rt.eng.At(e.at, e.m.fire)
		e.m = nil
	}
	rt.outbox = rt.outbox[:0]

	if len(rt.misses) > 1 {
		slices.SortFunc(rt.misses, func(a, b missNote) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.thief, b.thief)
		})
	}
	for _, note := range rt.misses {
		th := rt.nodes[note.thief]
		th.stealing = false
		if !th.running && th.ready.Len() == 0 && th.tokens.Len() == 0 &&
			!rt.downNow(th.id) {
			th.hungry = true
		}
	}
	rt.misses = rt.misses[:0]

	if rt.sampling {
		rt.emitSamples()
	}
	if rt.cfg.Balancer == earth.BalanceSteal {
		rt.matchSteals(vnow)
	}
}

// matchSteals pairs hungry (idle, dry) thieves with victims holding
// tokens, in node order, issuing the steal requests at the barrier's
// virtual instant. Receiver-initiated balancing is barrier work because
// victim selection needs a consistent view of every pool; an unmatched
// thief stays hungry and is retried at the next barrier, which models the
// real runtime's steal-retry loop at window granularity.
//
// Each thief draws uniformly from the nodes whose pools are non-empty.
// Issuing a request changes no pool (it travels as a message), so the list
// is built once per barrier, on the first thief; a thief is dry, so it is
// never in the list.
func (rt *Runtime) matchSteals(vnow sim.Time) {
	victims, listed := rt.victimScratch[:0], false
	for _, th := range rt.nodes {
		if !th.hungry || th.stealing || th.running ||
			th.ready.Len() > 0 || th.tokens.Len() > 0 ||
			rt.downNow(th.id) {
			continue
		}
		if !listed {
			for _, v := range rt.nodes {
				if v.tokens.Len() > 0 {
					victims = append(victims, v)
				}
			}
			rt.victimScratch, listed = victims, true
		}
		if len(victims) == 0 {
			break
		}
		v := victims[th.rand().Intn(len(victims))]
		th.hungry = false
		th.stealing = true
		issue := vnow + rt.cfg.Costs.AsyncSend
		th.acct.Issue(earth.EvStealRequest, issue, v.id, stealReqBytes)
		m, arrival := rt.envelope(msgStealReq, th.id, v.id, issue, stealReqBytes, stealReqBytes)
		rt.deliver(issue, arrival, m)
	}
}

// emitSamples emits the utilisation samples whose periods have been fully
// executed, one event per node per period in node order, trimming consumed
// busy spans as it goes.
func (rt *Runtime) emitSamples() {
	period := rt.cfg.UtilSamplePeriod
	for rt.sampleNext <= rt.maxExec {
		next := rt.sampleNext
		w0 := next - period
		for _, n := range rt.nodes {
			var busy sim.Time
			kept := n.spans[:0]
			for _, sp := range n.spans {
				lo, hi := sp.start, sp.end
				if lo < w0 {
					lo = w0
				}
				if hi > next {
					hi = next
				}
				if hi > lo {
					busy += hi - lo
				}
				if sp.end > next {
					kept = append(kept, sp)
				}
			}
			n.spans = kept
			rt.events.Event(earth.Event{Time: next, Node: n.id, Peer: earth.NoPeer,
				Kind: earth.EvUtilSample, Dur: busy})
		}
		rt.sampleNext += period
	}
}
