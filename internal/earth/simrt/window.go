// Conservative time-windowed parallel simulation.
//
// The simulated nodes are partitioned into contiguous shards, each with its
// own sim.Engine. The coordinator repeatedly:
//
//  1. computes the global minimum pending event time tmin,
//  2. runs every shard concurrently up to the window end
//     tmin + lookahead (clamped to the next crash/detection boundary),
//  3. at the barrier, merges the shards' outboxed cross-node messages in a
//     canonical order, matches hungry thieves to victims, emits due
//     utilisation samples, and applies due crash boundaries.
//
// The lookahead is manna.Config.MinRemoteLatency(): no message issued at or
// after tmin can arrive anywhere before tmin + lookahead, and every fault
// perturbation (drop retransmission, delay, duplication, crash-hold) only
// pushes arrivals later, so a window's shards can never affect each other
// mid-window. Mid-window a node mutates only its own state — every
// cross-node effect is an outboxed message applied at the barrier in
// (arrival, sender, issue-order) order — so the per-node execution is
// independent of the partitioning, and stats, traces and critical-path
// attribution are byte-identical for every shard count.
package simrt

import (
	"cmp"
	"slices"
	"sort"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// shard is one host worker's slice of the machine: nodes [lo, hi) and a
// private event queue. Everything inside is touched either by the shard's
// own events mid-window or by the coordinator at barriers, never both at
// once.
type shard struct {
	id, lo, hi int
	rt         *Runtime
	eng        *sim.Engine
	// outbox holds the cross-node messages this shard's events issued in
	// the current window, drained by the coordinator at the barrier.
	outbox []outboxEntry
	// misses holds steal-miss notifications for thieves on other shards,
	// drained at the barrier.
	misses []missNote
	// events buffers this shard's trace emissions for the final canonical
	// merge.
	events eventBuf
	// msgFree is the shard-local envelope pool.
	msgFree []*msg
	// runCh/doneCh drive the shard's worker goroutine (nil for shard 0,
	// which runs inline on the coordinator).
	runCh  chan sim.Time
	doneCh chan any
}

// outboxEntry is one cross-node message awaiting the barrier merge. The
// (at, from, seq) triple orders entries canonically: seq is the sender
// node's own issue counter, so the merged order depends only on per-node
// execution, never on the shard layout.
type outboxEntry struct {
	at   sim.Time
	from earth.NodeID
	seq  uint64
	m    *msg
}

// missNote tells the coordinator that a steal request missed at a victim,
// so the thief (usually on another shard) can be re-matched at the barrier.
type missNote struct {
	at    sim.Time
	thief earth.NodeID
}

// boundary is one instant of the precomputed failure schedule. Windows
// never simulate across a boundary: crashes, detections, fences and heals
// mutate state machine-wide (routing, adoption, token reassignment, epoch
// bumps), so they run on the quiesced coordinator, at the same virtual
// instant for every shard count.
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

// runWindows is the coordinator loop driving one Run to quiescence.
func (rt *Runtime) runWindows() {
	stop := rt.startWorkers()
	defer stop()
	var vnow sim.Time
	bi := 0
	for {
		rt.barrier(vnow)
		tmin, ok := rt.minPending()
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
		rt.runShards(end)
		vnow = end
	}
}

// minPending returns the earliest pending event time across all shards.
// Valid only at barriers, when every outboxed message has been inserted.
func (rt *Runtime) minPending() (sim.Time, bool) {
	var best sim.Time
	ok := false
	for _, s := range rt.shards {
		if t, has := s.eng.Peek(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// barrier is the coordinator's between-window work, in a fixed order so
// its effects are identical for every shard count:
//
//  1. merge all shards' outboxed messages canonically and insert them
//     into their target engines,
//  2. deliver steal-miss notes (re-arming thieves for matching),
//  3. emit utilisation samples due up to the executed horizon,
//  4. match hungry thieves to steal victims.
func (rt *Runtime) barrier(vnow sim.Time) {
	box := rt.boxScratch[:0]
	for _, s := range rt.shards {
		box = append(box, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	// Both sorts below have unique keys, so the order does not depend on
	// the algorithm; most barriers have nothing to sort at all.
	if len(box) > 1 {
		slices.SortFunc(box, func(a, b outboxEntry) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if c := cmp.Compare(a.from, b.from); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	for i := range box {
		e := &box[i]
		rt.nodes[e.m.to].sh.eng.At(e.at, e.m.fire)
		e.m = nil
	}
	rt.boxScratch = box[:0]

	ms := rt.missScratch[:0]
	for _, s := range rt.shards {
		ms = append(ms, s.misses...)
		s.misses = s.misses[:0]
	}
	if len(ms) > 1 {
		slices.SortFunc(ms, func(a, b missNote) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.thief, b.thief)
		})
	}
	for _, note := range ms {
		th := rt.nodes[note.thief]
		th.stealing = false
		if !th.running && th.ready.len() == 0 && th.tokens.len() == 0 &&
			!rt.downNow(th.id) {
			th.hungry = true
		}
	}
	rt.missScratch = ms[:0]

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
func (rt *Runtime) matchSteals(vnow sim.Time) {
	for _, th := range rt.nodes {
		if !th.hungry || th.stealing || th.running ||
			th.ready.len() > 0 || th.tokens.len() > 0 ||
			rt.downNow(th.id) {
			continue
		}
		v := rt.pickVictim(th)
		if v == nil {
			continue
		}
		th.hungry = false
		th.stealing = true
		issue := vnow + rt.cfg.Costs.AsyncSend
		if rt.tr != nil {
			rt.emit(nil, earth.Event{Time: issue, Node: th.id, Peer: v.id,
				Kind: earth.EvStealRequest, Bytes: stealReqBytes})
		}
		m, arrival := rt.envelope(v.sh, msgStealReq, th.id, v.id, issue, stealReqBytes, stealReqBytes)
		rt.deliver(nil, issue, arrival, m)
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
			rt.emit(nil, earth.Event{Time: next, Node: n.id, Peer: earth.NoPeer,
				Kind: earth.EvUtilSample, Dur: busy})
		}
		rt.sampleNext += period
	}
}

// startWorkers launches one goroutine per shard beyond the first and
// returns the function that retires them. Shard 0 always runs inline on
// the coordinator. The goroutines communicate exclusively through their
// run/done channels: mid-window they own disjoint state, and the barrier
// protocol is the only synchronisation — which is why results cannot
// depend on goroutine scheduling.
func (rt *Runtime) startWorkers() func() {
	ws := rt.shards[1:]
	if len(ws) == 0 {
		return func() {}
	}
	for _, s := range ws {
		s.runCh = make(chan sim.Time, 1)
		s.doneCh = make(chan any, 1)
		s := s
		//detlint:allow shard workers synchronise exclusively at window barriers; results are byte-identical for every shard count
		go func() {
			for end := range s.runCh {
				var pan any
				func() {
					defer func() { pan = recover() }()
					s.eng.RunBefore(end)
				}()
				s.doneCh <- pan
			}
		}()
	}
	return func() {
		for _, s := range ws {
			close(s.runCh)
		}
	}
}

// runShards executes one window: every shard with an event before end runs
// concurrently up to (strictly before) end. The coordinator runs shard 0
// inline and collects the workers at the barrier. A panicking shard (a
// programming-error panic from application code, e.g. Ctx misuse) is
// re-raised after every active worker has parked, so the machine is
// quiescent and no worker is left running.
func (rt *Runtime) runShards(end sim.Time) {
	rt.atBarrier = false
	act := rt.actScratch[:0]
	var inline *shard
	for _, s := range rt.shards {
		t, ok := s.eng.Peek()
		if !ok || t >= end {
			continue
		}
		if s.id == 0 {
			inline = s
			continue
		}
		s.runCh <- end
		act = append(act, s)
	}
	var pan any
	if inline != nil {
		if len(act) == 0 {
			// Single-shard (or single-active-shard) fast path: run on the
			// coordinator with no recover frame, preserving ordinary panic
			// propagation to the caller of Run.
			inline.eng.RunBefore(end)
		} else {
			func() {
				defer func() { pan = recover() }()
				inline.eng.RunBefore(end)
			}()
		}
	}
	for _, s := range act {
		if p := <-s.doneCh; p != nil && pan == nil {
			pan = p
		}
	}
	rt.actScratch = act[:0]
	rt.atBarrier = true
	for _, s := range rt.shards {
		if t := s.eng.Now(); t > rt.maxExec {
			rt.maxExec = t
		}
	}
	if pan != nil {
		panic(pan)
	}
}

// phaseRank orders event kinds within one (Time, Node) instant for the
// canonical trace sort: recovery re-dispatch first (it explains the work
// that follows), then thread execution, handler execution, sends, fault
// bookkeeping, deliveries, sync signals, and utilisation samples last.
// Deliver-before-sync preserves the causal reading (a sync fired by a
// delivered message appears after the delivery that caused it).
func phaseRank(k earth.EventKind) uint8 {
	switch k {
	case earth.EvNodeDown, earth.EvFrameReplayed, earth.EvWorkReassigned,
		earth.EvPartitionFence, earth.EvRejoined:
		return 0
	case earth.EvThreadRun:
		return 1
	case earth.EvHandlerRun:
		return 2
	case earth.EvPutSend, earth.EvGetSend, earth.EvInvokeSend, earth.EvPostSend,
		earth.EvTokenSpawn, earth.EvStealRequest, earth.EvBatchFlush:
		return 3
	case earth.EvFaultInjected, earth.EvTimedOut, earth.EvRetry, earth.EvRecovered,
		earth.EvFenced, earth.EvCorrupt, earth.EvPartitionStart, earth.EvPartitionHeal:
		return 4
	case earth.EvPutDeliver, earth.EvGetDeliver, earth.EvInvokeDeliver,
		earth.EvTokenDeliver, earth.EvStealGrant, earth.EvStealMiss:
		return 5
	case earth.EvSyncSignal:
		return 6
	case earth.EvSanitize:
		// End-of-run scan results; after everything else at the makespan.
		return 8
	default: // EvUtilSample
		return 7
	}
}

// eventCmp is the canonical trace order as a three-way comparison:
// virtual time, node, phase, then every remaining field, so it returns 0
// only for identical events and the (unstable) sort yields one
// well-defined stream for any shard count.
func eventCmp(a, b *earth.Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(phaseRank(a.Kind), phaseRank(b.Kind)); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Cause, b.Cause); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Peer, b.Peer); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dur, b.Dur); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Wait, b.Wait); c != 0 {
		return c
	}
	return cmp.Compare(a.Bytes, b.Bytes)
}

// flushTrace merges the coordinator's and every shard's buffered events
// into one stream allocated at its exact length, sorts it canonically and
// hands it to the tracer, announcing the length first to a tracer that
// has a Grow(n int) method so it can reserve room once.
func (rt *Runtime) flushTrace() {
	if rt.tr != nil {
		n := rt.cord.len()
		for _, s := range rt.shards {
			n += s.events.len()
		}
		evs := rt.cord.appendTo(make([]earth.Event, 0, n))
		rt.cord.reset()
		for _, s := range rt.shards {
			evs = s.events.appendTo(evs)
			s.events.reset()
		}
		slices.SortFunc(evs, func(a, b earth.Event) int { return eventCmp(&a, &b) })
		if g, ok := rt.tr.(interface{ Grow(n int) }); ok {
			g.Grow(n)
		}
		for i := range evs {
			rt.tr.Event(evs[i])
		}
	}
}
