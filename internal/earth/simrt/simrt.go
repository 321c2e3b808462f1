// Package simrt is the discrete-event simulation engine for the EARTH
// execution model. It executes application code for real (the eigenvalues,
// Gröbner bases and neural-network weights it produces are genuine) while
// accounting time in a virtual clock:
//
//   - application threads charge modelled compute time via Ctx.Compute,
//   - runtime operations charge the configured earth.CostModel,
//   - the network charges manna transfer times (NIC serialisation, hop
//     latency, bandwidth).
//
// Each node is modelled as a processor with a ready queue of threads, a
// token pool and a virtual availability time. Threads are non-preemptive:
// a dispatched body runs to completion, advancing the node's clock.
// Incoming messages are handled on the EARTH Synchronization-Unit /
// polling-watchdog path: their effect occurs at arrival plus the
// receiver-side cost; if the cost model declares that receiving consumes
// the processor (the message-passing models of the paper's Section 3.2),
// the node's next dispatch is additionally delayed by that cost.
//
// A run is fully deterministic for a given Config (including Seed). With a
// Config.Tracer installed, the engine additionally emits one earth.Event
// per runtime action, in a canonical deterministic order, timestamped in
// virtual time; without one, every emission site is a single nil check.
// The events are buffered while the run executes and reach the tracer when
// it ends, sorted, in one earth.BatchTracer call (or one Event call each
// for a tracer that takes no batches). See trace.go.
//
// # Windows and barriers
//
// One goroutine drives one event queue, in windows of width
// manna.Config.MinRemoteLatency() — the least time any message needs to
// reach another node, so nothing sent inside a window can arrive before it
// ends. Cross-node messages enter the queue at the barrier that closes
// their window, in (arrival, sender, issue-order) order; the barrier is
// also the instant at which idle nodes send their steal requests, steal
// misses are learnt, utilisation samples are emitted and crash, detection,
// fence and heal boundaries apply. The cadence therefore models something
// — a node notices it is idle, and hears back from a victim, at network
// granularity — and simulated times and event order depend on it. It is
// the only run loop there is. See window.go.
//
// The implementation is tuned to minimise host-side allocation on the
// per-event hot path: every in-flight runtime message (sync signals,
// invoke/token arrivals, posts, put/get legs and the steal protocol) is a
// pooled envelope whose fire closure is allocated once and recycled, node
// ready queues and token pools are earth.Ring deques (the one queue type
// both engines use: O(1) pushes and pops at either end, popped slots
// zeroed), thread contexts are reused, and each node's dispatch
// continuation is a single cached closure. Envelopes, queues, the event
// heap and a trace chunk outlive the runtime: each Run borrows them from a
// free list shared by every Runtime (store.go).
package simrt

import (
	"fmt"
	"math/rand"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/manna"
	"earth/internal/sim"
)

// stealReqBytes is the size of a work-stealing request message.
const stealReqBytes = 8

// item is a unit of dispatchable work on a node.
type item struct {
	body     earth.ThreadBody
	recvCost sim.Time    // receiver-side software overhead charged at dispatch
	enq      sim.Time    // virtual time the work became ready (for Wait tracing)
	cause    earth.Cause // what made it ready
}

// token is a load-balanced invocation waiting in a node's pool.
type token struct {
	body     earth.ThreadBody
	argBytes int
	enq      sim.Time // deposit time
}

// node is the simulated per-node state. Mid-window, a node's state is
// touched only by events executing on that node: every cross-node effect
// is a time-stamped message that enters the queue at a barrier.
type node struct {
	id earth.NodeID
	// lane is the node's queues, token pool, busy spans and coalescer, in
	// the store lent to the running Run (store.go); nil between Runs.
	*lane
	// outSeq numbers this node's outboxed messages so the barrier merge can
	// order same-instant sends from one node by issue order.
	outSeq  uint64
	running bool // a dispatch chain is active
	// cpuDebt accumulates receiver-side costs that must delay the next
	// dispatch when the cost model consumes the processor on receive.
	cpuDebt  sim.Time
	stealing bool // a steal request is in flight
	hungry   bool // ran dry under the steal balancer; matched at barriers
	// rng is the node's random stream (sim.NewRand: math/rand's draws for
	// rngSeed, never seeded), opened by rand() on the first draw (many
	// programs never draw) and continued, never reopened, across Runs.
	rng     *rand.Rand
	rngSeed int64
	// acct holds the node's counters, sanitizer ledger and event sink.
	acct earth.NodeAcct
	rr   int // per-node round-robin placement cursor
	// dispatchFn is the node's dispatch continuation, allocated once and
	// reused for every reschedule of the dispatch chain.
	dispatchFn func()
	// freeCtx caches the most recently retired thread context for reuse,
	// so steady-state dispatching does not allocate.
	freeCtx *ctx
}

// rand returns the node's random stream.
func (n *node) rand() *rand.Rand {
	if n.rng == nil {
		n.rng = sim.NewRand(n.rngSeed)
	}
	return n.rng
}

// getCtx returns a reset thread context, reusing the node's retired one
// when available.
func (n *node) getCtx(rt *Runtime, cursor sim.Time) *ctx {
	c := n.freeCtx
	if c == nil {
		c = &ctx{}
	}
	n.freeCtx = nil
	*c = ctx{rt: rt, n: n, cursor: cursor}
	return c
}

// putCtx retires a context after its body returned.
func (n *node) putCtx(c *ctx) {
	c.dead = true
	n.freeCtx = c
}

// span is one busy interval of a node in virtual time.
type span struct{ start, end sim.Time }

// msgKind discriminates the pooled message envelopes.
type msgKind uint8

const (
	msgSync       msgKind = iota // remote sync-slot decrement
	msgThread                    // invoke or placed-token arrival: enqueue a thread
	msgPost                      // handler-path delivery
	msgPut                       // remote put payload arrival
	msgGetReq                    // get request leg arriving at the owner
	msgGetResp                   // get response leg arriving back at the requester
	msgStealReq                  // steal request arriving at the victim
	msgStealGrant                // stolen/deposited token arriving at the thief
	msgBatch                     // coalesced same-destination batch (see coalesce.go)
)

// msg is a pooled in-flight runtime message. Every remote leg the engine
// schedules is one envelope drawn from the store's free list; the fire
// closure is allocated once per envelope and survives recycling — it reads
// rt, which lend sets and giveBack clears, when it is called — so
// steady-state message traffic schedules simulator events without
// allocating (beyond the application-level bodies the caller created).
// Envelopes with a receiver-side cost fire in two stages: stage 0 charges
// the cost at arrival and reschedules itself; stage 1 applies the effect.
type msg struct {
	rt       *Runtime
	kind     msgKind
	stage    uint8
	from     earth.NodeID
	to       earth.NodeID
	f        *earth.Frame
	slot     int
	body     earth.ThreadBody
	read     func() func()
	write    func()
	deliver  func()
	src, dst *uint64 // a word Get's ends (earth.WordGetter): no read or deliver then
	word     uint64  // loaded from *src on the owner, stored into *dst on the requester
	recvCost sim.Time
	issue    sim.Time
	bytes    int
	cause    earth.Cause
	// seq is the fault-plan sequence number (0 = no plan active for this
	// leg); drops is how many modelled retransmissions preceded delivery.
	seq   uint64
	drops uint16
	// corrupts is how many attempts arrived bit-flipped and were NACKed
	// by the receiver's checksum before the clean copy.
	corrupts uint16
	// sendEpoch is the sender's incarnation epoch at issue (stamped only
	// under partition plans). A receiver firing the message when the
	// sender's epoch has advanced rejects it — the fencing NACK.
	sendEpoch uint64
	// dup marks both copies of a duplicated transmission (idempotent
	// delivery suppresses the second, see receive).
	dup bool
	// origTo/arr0/rerouted record the pre-crash-routing target and arrival
	// so the fire path can reconstruct the failover hops for accounting.
	origTo   earth.NodeID
	arr0     sim.Time
	rerouted bool
	// batch carries a coalesced envelope's operations (kind == msgBatch).
	batch []coalOp
	fire  func()
}

// Runtime is a simulated EARTH machine.
type Runtime struct {
	cfg   earth.Config
	mach  *manna.Machine
	nodes []*node
	// store is everything a Run grows (store.go), lent for one Run: nil
	// while the runtime is idle.
	*store
	// lookahead is the window width: no cross-node message issued at T can
	// arrive before T+lookahead (manna.MinRemoteLatency, which stays a
	// lower bound under every fault perturbation).
	lookahead sim.Time
	// sink is the lent store's event buffer while a traced Run runs, and the
	// zero Sink otherwise.
	sink earth.Sink
	// coalOn caches cfg.Coalesce.Enabled for the per-operation hot path.
	coalOn bool
	// sampling is true when a tracer with UtilSamplePeriod is installed; it
	// makes the Busy accrual points also record spans for window attribution.
	sampling bool
	// atBarrier is true between windows: sends issued then (steal requests,
	// token re-placement at a boundary) enter the queue directly instead
	// of the outbox.
	atBarrier bool
	// Fault injection (nil injs means a clean run: every fault hook is a
	// single pointer check). One injector lane per sender node, so verdict
	// draws depend only on that node's deterministic send order.
	injs     []*faults.Injector
	plan     *faults.Plan
	retry    earth.RetryPolicy
	hasPause bool
	// Node fates: take is the core's table of who crashed, who was
	// fenced, each node's epoch and who holds its frames, with the crash
	// and fence schedule; it picks adopters and holds the load balancer's
	// cursor for re-placing a down node's tokens. boundaries is that
	// schedule sorted, which the window loop never simulates across; seen
	// is the idempotent-delivery store both copies of a duplicate consult;
	// halted (nil without fences) marks nodes self-fenced until their heal.
	take       earth.Takeover
	boundaries []boundary
	seen       earth.SeenSet
	halted     []bool
	// Window progress: maxExec is the furthest executed instant (events and
	// boundaries); bApplied counts applied boundaries toward Stats.Events;
	// sampleNext is the next pending utilisation-sample boundary.
	maxExec    sim.Time
	bApplied   uint64
	sampleNext sim.Time
}

var _ earth.Runtime = (*Runtime)(nil)

// New builds a simulated runtime from cfg.
func New(cfg earth.Config) *Runtime {
	cfg = cfg.WithDefaults()
	var mc manna.Config
	if cfg.Machine != nil {
		mc = *cfg.Machine
		mc.Nodes = cfg.Nodes
	} else {
		mc = manna.Default(cfg.Nodes)
	}
	rt := &Runtime{
		cfg:       cfg,
		mach:      manna.New(mc),
		nodes:     make([]*node, cfg.Nodes),
		lookahead: mc.MinRemoteLatency(),
		coalOn:    cfg.Coalesce.Enabled,
	}
	for i := range rt.nodes {
		n := &node{id: earth.NodeID(i), rngSeed: cfg.Seed*1_000_003 + int64(i)}
		n.acct.Node = n.id
		n.dispatchFn = func() { rt.dispatch(n) }
		rt.nodes[i] = n
	}
	fs, err := cfg.ResolveFaults()
	if err != nil {
		panic("simrt: " + err.Error())
	}
	if fs.Plan == nil {
		return rt
	}
	rt.plan, rt.retry = fs.Plan, fs.Retry
	rt.take.Init(cfg.Nodes, fs)
	rt.hasPause = fs.Plan.HasPause()
	rt.injs = make([]*faults.Injector, cfg.Nodes)
	for i := range rt.injs {
		rt.injs[i] = faults.NewLaneInjector(fs.Plan, cfg.Seed, i)
	}
	if fs.Plan.HasDegrade() {
		rt.mach.SetLinkScale(fs.Plan.LinkScale)
	}
	if fs.Plan.HasCorrupt() {
		for _, n := range rt.nodes {
			n.acct.Checksum = manna.ChecksumBytes
		}
	}
	if len(fs.Fences) > 0 {
		rt.halted = make([]bool, cfg.Nodes)
	}
	rt.boundaries = makeBoundaries(fs.CrashAt, fs.Fences, rt.retry.Lease)
	return rt
}

// newMsg draws an envelope from the store's free list (or allocates one
// with its permanent fire closure).
func (rt *Runtime) newMsg() *msg {
	if k := len(rt.msgFree); k > 0 {
		m := rt.msgFree[k-1]
		rt.msgFree = rt.msgFree[:k-1]
		return m
	}
	m := &msg{rt: rt}
	m.fire = func() { m.rt.fireMsg(m) }
	return m
}

// freeMsg returns an envelope to the store's free list. Everything but the
// runtime and the bound fire closure goes: a field kept from an envelope's
// previous life would leak the free list's reuse order into the run (a
// stale issue, say, into recovery-latency accounting, as deliver treats a
// zero issue as "stamp me"). Only the batch's slice header is dropped: a
// duplicate-injection clone shares the backing array and may not have
// fired yet, so the elements must not be cleared here.
func (rt *Runtime) freeMsg(m *msg) {
	*m = msg{rt: m.rt, fire: m.fire}
	rt.msgFree = append(rt.msgFree, m)
}

// P returns the node count.
func (rt *Runtime) P() int { return len(rt.nodes) }

// Run executes main as thread 0 of a frame on node 0 and drives the
// simulation to quiescence. It may be called repeatedly; each call starts
// from a fresh virtual clock but reuses node RNG streams (so consecutive
// runs explore different schedules, as repeated real runs would). Its
// queues, envelopes, event heap and trace chunk are borrowed for the call
// (store.go); a Run that panics does not give its store back.
func (rt *Runtime) Run(main earth.ThreadBody) *earth.Stats {
	rt.lend()
	rt.mach.Reset()
	if rt.injs != nil {
		for _, in := range rt.injs {
			in.Reset()
		}
	}
	for _, n := range rt.nodes {
		n.running, n.stealing, n.hungry = false, false, false
		n.cpuDebt = 0
		n.outSeq = 0
		n.rr = 0
		n.acct.Reset(rt.cfg.Sanitize)
	}
	rt.take.Reset()
	rt.seen.Reset()
	clear(rt.halted)
	if rt.plan.HasPartition() && rt.sink.On() {
		// The partition schedule is static: pre-emit its window events and
		// let the final canonical sort place them.
		earth.PartitionMarks(rt.plan, rt.retry.Lease, func(pt faults.Partition, ev earth.Event) {
			earth.MarkPartition(rt.sink, pt, len(rt.nodes), ev)
		})
	}
	rt.maxExec = 0
	rt.bApplied = 0
	rt.sampling = rt.sink.On() && rt.cfg.UtilSamplePeriod > 0
	rt.sampleNext = rt.cfg.UtilSamplePeriod
	if rt.cfg.Balancer == earth.BalanceSteal {
		// All nodes except node 0 start idle and hungry, so the first
		// tokens flow out at the first barrier (receiver-initiated
		// balancing).
		for _, n := range rt.nodes[1:] {
			n.hungry = true
		}
	}
	rt.atBarrier = true
	rt.enqueueAt(rt.nodes[0], item{body: main, cause: earth.CauseSpawn}, 0)
	rt.runWindows()
	st := &earth.Stats{
		Elapsed: rt.maxExec,
		Nodes:   make([]earth.NodeStats, len(rt.nodes)),
		Events:  rt.eng.Events + rt.bApplied,
	}
	for i, n := range rt.nodes {
		st.Nodes[i] = n.acct.Stats
	}
	st.Sanitize = earth.ScanLedgers(rt.nodes, func(n *node) *earth.SanLedger { return &n.acct.San }, rt.maxExec, rt.sink)
	rt.flushTrace()
	rt.giveBack()
	return st
}

// addSpan records a busy interval for utilisation sampling.
func (n *node) addSpan(rt *Runtime, start, end sim.Time) {
	if rt.sampling && end > start {
		n.spans = append(n.spans, span{start, end})
	}
}

// applyCrash executes a scheduled crash-stop failure at its window
// boundary: the node halts at its next dispatch boundary (a thread body
// running across the crash instant completes — bodies are atomic in this
// model) and stops dispatching, stealing and serving its queues. Its state
// stays frozen until the failure detector's lease expires and applyDetect
// hands it over to a survivor.
func (rt *Runtime) applyCrash(b boundary) {
	x := earth.NodeID(b.node)
	rt.take.Crash(x)
	rt.nodes[x].acct.Stats.Add(earth.NodeFault(rt.sink, x, b.at, earth.CauseCrash, rt.retry.Lease))
}

// applyDetect fires one lease after a crash: survivors have missed enough
// heartbeats/acks to declare the node dead, and its state fails over to
// the core's adopter, which skips a crashed node whether declared down or
// not: a dead node runs nothing.
func (rt *Runtime) applyDetect(b boundary) {
	rt.failover(earth.NodeID(b.node), b.at, earth.CauseCrash)
}

// applyFence executes one wrong failure verdict at its window boundary:
// the partition has outlived node x's detection lease, so the survivors —
// unable to tell a partitioned node from a dead one — bump x's incarnation
// epoch and fail its state over exactly as applyDetect would for a real
// crash. Symmetrically x, having outlived its own lease without hearing an
// ack, self-fences: it halts until the partition heals. From this boundary
// on, any message stamped with x's old epoch is rejected at its receiver
// (the fencing NACK of earth.Receive). The adopter is the core's choice:
// it must be clean at this instant, and simultaneous fences of one
// partition have not applied their own boundary yet. Skipped when x
// already crashed — the crash machinery owns that failover.
func (rt *Runtime) applyFence(b boundary) {
	x := earth.NodeID(b.node)
	if !rt.take.Fence(x) {
		return
	}
	rt.halted[x] = true
	rt.failover(x, b.at, earth.CausePartition)
}

// failover hands down node x's state at a detection or fence boundary to
// the adopter the core picks and records, s: s declares x dead, replays
// x's queued threads from their checkpointed frames, and x's pooled tokens
// go back to the load balancer for deterministic re-placement. Frame state
// in this embedding lives in host memory, so adoption is the god-view
// counterpart of the retransmit model: the failure perturbs placement and
// timing, never data.
func (rt *Runtime) failover(x earth.NodeID, now sim.Time, cause earth.Cause) {
	s := rt.take.HandOver(x, now)
	n, sn := rt.nodes[x], rt.nodes[s]
	n.acct.Stats.DetectionLatency = rt.retry.Lease
	// The down node no longer participates in stealing.
	n.hungry, n.stealing = false, false
	h := earth.Handover{Down: x, At: now, Cause: cause, Sink: rt.sink}
	sn.acct.Stats.Add(h.Declare(s, rt.retry.Lease))
	for n.ready.Len() > 0 {
		it := n.ready.PopFront()
		it.enq = now
		sn.acct.Stats.Add(h.Replay(s))
		rt.enqueueAt(sn, it, now)
	}
	for n.tokens.Len() > 0 {
		rt.reassignToken(h, sn, n.tokens.PopFront())
	}
}

// applyHeal fires when a fenced node's partition heals: the node runs the
// reconciliation handshake and re-enters at the bumped epoch as a
// steal-only worker — its old frames stay with the adopter the fence
// recorded (ownership never moves back), but it executes new work again.
// Skipped if the node crashed while fenced.
func (rt *Runtime) applyHeal(b boundary) {
	x := b.node
	if rt.take.Crashed(earth.NodeID(x)) || !rt.halted[x] {
		return
	}
	rt.halted[x] = false
	n := rt.nodes[x]
	n.acct.Stats.Add(earth.Rejoin(rt.sink, n.id, b.at, b.at-b.ref))
	// Work that landed while halted (stage-1 remnants of pre-fence
	// deliveries, app-addressed traffic) kicks the dispatch chain now;
	// an empty node re-enters through the steal balancer instead.
	if n.ready.Len() > 0 || n.tokens.Len() > 0 {
		if !n.running {
			n.running = true
			rt.eng.At(b.at, n.dispatchFn)
		}
	} else if rt.cfg.Balancer == earth.BalanceSteal && !n.stealing {
		n.hungry = true
	}
}

// downNow reports whether node x is currently unable to execute: crashed,
// or self-fenced inside an active partition verdict. Unlike ownership this
// heals — a rejoined node executes again.
func (rt *Runtime) downNow(x earth.NodeID) bool {
	return rt.take.Crashed(x) || (rt.halted != nil && rt.halted[x])
}

// reassignToken returns one of a down node's pooled tokens to the load
// balancer: placed on the next survivor the core picks, shipped from the
// adopter (which holds the checkpointed args now) at normal network cost.
// Runs only at detection/fence boundaries.
func (rt *Runtime) reassignToken(h earth.Handover, sn *node, tk token) {
	now := h.At
	tn := rt.nodes[rt.take.Place(now)]
	tn.acct.Stats.Add(h.Reassign(tn.id, tk.argBytes))
	if tn == sn {
		rt.enqueueAt(tn, item{body: tk.body, enq: now, cause: earth.CauseToken}, now)
		return
	}
	// The adopter's send software runs first, but the placement latency
	// (EvTokenDeliver's Dur) counts from the boundary instant.
	m, arrival := rt.envelope(msgThread, sn.id, tn.id, now+rt.cfg.Costs.AsyncSend, tk.argBytes, tk.argBytes)
	m.body, m.cause, m.issue = tk.body, earth.CauseToken, now
	rt.deliver(now, arrival, m)
}

// walkDown statically routes an arrival when a crash plan or fenced
// partition is active, using only immutable schedules (crash times, fence
// spans, lease), so it can run at send time. A message headed to a node
// that has crashed by its arrival is held until that node's lease
// expires (the sender's missed heartbeats/acks are what expose the
// failure) and re-routed to the adopter; a message arriving inside a
// node's fence span re-routes immediately (the fence instant already sits
// one lease past the partition's start), while one arriving after the
// heal routes to the rejoined node normally — which is why this uses the
// bounded fence span and not the table's permanent ownership. The loop
// covers chained failovers. hop, when non-nil, observes each failover
// (post-hold time and the down node being abandoned) so the fire path can
// account them.
func (rt *Runtime) walkDown(a sim.Time, dst earth.NodeID, hop func(at sim.Time, x earth.NodeID)) (sim.Time, earth.NodeID) {
	crashAt, fences := rt.take.CrashAt, rt.take.Fences
	for {
		if crashAt != nil && crashAt[dst] >= 0 && a >= crashAt[dst] {
			a = max(a, crashAt[dst]+rt.retry.Lease)
		} else if !fences.Covering(int(dst), a) {
			return a, dst
		}
		x := dst
		dst = rt.take.Reroute(dst, a)
		if hop != nil {
			hop(a, x)
		}
	}
}

// emitReroute reconstructs the failover hops of a rerouted envelope at
// delivery time and accounts the re-dispatched work: an in-flight invoke
// re-instantiates its frame; an in-flight token (placed, stolen or
// granted) counts as a balancer re-assignment. Sync, put, get and post
// legs re-route silently — the adopter owns the checkpointed frame state
// they target. Each hop's cause records whether a crash or a fence
// displaced it. Stats and events land on the final target, which is the
// node the envelope fires on.
func (rt *Runtime) emitReroute(m *msg) {
	fn := rt.nodes[m.to]
	rt.walkDown(m.arr0, m.origTo, func(at sim.Time, x earth.NodeID) {
		h := earth.Handover{Down: x, At: at, Cause: earth.CauseCrash, Sink: rt.sink}
		if rt.take.Fences.Covering(int(x), at) {
			h.Cause = earth.CausePartition
		}
		switch {
		case m.kind == msgStealGrant, m.kind == msgThread && m.cause == earth.CauseToken:
			fn.acct.Stats.Add(h.Reassign(m.to, m.bytes))
		case m.kind == msgThread:
			fn.acct.Stats.Add(h.Replay(m.to))
		}
	})
}

// enqueueAt places it on n's ready queue and kicks the dispatch chain at
// the given instant if the node is idle. Mid-window callers pass the
// queue's current time (see enqueue); boundary work passes the boundary
// instant, since the queue's clock is stale between windows.
func (rt *Runtime) enqueueAt(n *node, it item, at sim.Time) {
	n.ready.Push(it)
	n.hungry = false
	if !n.running {
		n.running = true
		rt.eng.At(at, n.dispatchFn)
	}
}

// enqueue places it on n's ready queue from an event executing on n.
func (rt *Runtime) enqueue(n *node, it item) {
	rt.enqueueAt(n, it, rt.eng.Now())
}

// dispatch pops and executes the next unit of work on n. It runs as a
// simulator event at the node's availability time.
func (rt *Runtime) dispatch(n *node) {
	// A crashed node halts at its dispatch boundary: whatever was running
	// has completed, and nothing further dispatches. Queued state stays
	// frozen until the detection boundary hands it to the adopter.
	if rt.take.Crashed(n.id) {
		return
	}
	// A self-fenced node parks instead: unlike a crash it will resume at
	// heal, so the chain must be restartable — running flips false and the
	// heal boundary (or any post-heal enqueue) re-kicks it.
	if rt.halted != nil && rt.halted[n.id] {
		n.running = false
		return
	}
	eng := &rt.eng
	// A paused node defers its whole dispatch chain to the window's end.
	// Messages still land and sync slots still fire during the pause (the
	// Synchronization Unit keeps servicing the network); only thread
	// execution stalls.
	if rt.hasPause {
		now := eng.Now()
		if pu := rt.plan.PauseUntil(int(n.id), now); pu > now {
			n.acct.Stats.Add(earth.NodeFault(rt.sink, n.id, now, earth.CausePause, pu-now))
			eng.At(pu, n.dispatchFn)
			return
		}
	}
	// Receiver-side CPU debt delays the node.
	if n.cpuDebt > 0 {
		d := n.cpuDebt
		n.cpuDebt = 0
		eng.After(d, n.dispatchFn)
		return
	}
	var it item
	switch {
	case n.ready.Len() > 0:
		it = n.ready.PopFront()
	case n.tokens.Len() > 0:
		// Run own tokens newest-first (depth-first on task trees).
		tk := n.tokens.PopBack()
		it = item{body: tk.body, enq: tk.enq, cause: earth.CauseToken}
	default:
		n.running = false
		// Dry under the steal balancer: flag the node hungry; the next
		// window barrier matches it against a victim (see matchSteals).
		if rt.cfg.Balancer == earth.BalanceSteal && !n.stealing && !rt.downNow(n.id) {
			n.hungry = true
		}
		return
	}

	start := eng.Now()
	c := n.getCtx(rt, start+rt.cfg.Costs.ThreadSwitch+it.recvCost)
	it.body(c)
	if rt.coalOn {
		// Step boundary: the body is done, ship its batched traffic. The
		// flush charges accrue to the body's span (before end is read).
		n.coal.Drain(c)
	}
	end := c.cursor
	n.putCtx(c)
	n.acct.Stats.Busy += end - start
	n.addSpan(rt, start, end)
	n.acct.Ran(start, end, it.enq, it.cause)
	if end > start {
		eng.At(end, n.dispatchFn)
	} else {
		eng.After(0, n.dispatchFn)
	}
}

// execHandlerBody runs an active-message handler body on n at the current
// event time (the receiver-side cost has already been charged).
func (rt *Runtime) execHandlerBody(n *node, body earth.ThreadBody) {
	start := rt.eng.Now()
	hc := n.getCtx(rt, start)
	body(hc)
	if rt.coalOn {
		n.coal.Drain(hc)
	}
	end := hc.cursor
	n.putCtx(hc)
	n.acct.Stats.Busy += end - start
	n.addSpan(rt, start, end)
	n.acct.Ran(start, end, start, earth.CauseHandler)
}

// chargeRecv accounts receiver-side software overhead at the current event
// time. If the cost model consumes the CPU on receive, the node's next
// dispatch is delayed correspondingly.
func (rt *Runtime) chargeRecv(n *node, cost sim.Time) {
	now := rt.eng.Now()
	n.acct.Stats.Busy += cost
	n.addSpan(rt, now, now+cost)
	if rt.consumesCPUOnRecv() {
		n.cpuDebt += cost
	}
}

// stageRecv charges the receiver-side cost for a two-stage envelope and
// reports whether the effect stage was deferred (rescheduled at the
// current time plus the cost).
func (rt *Runtime) stageRecv(m *msg, n *node, cost sim.Time) bool {
	rt.chargeRecv(n, cost)
	if cost > 0 {
		m.stage = 1
		rt.eng.After(cost, m.fire)
		return true
	}
	return false
}

// envelope charges the network for one remote message leaving from at
// ready — wire bytes on the wire, carrying bytes of application payload —
// and returns its filled envelope with the clean arrival time. The caller
// adds the kind's own fields and hands both to deliver.
func (rt *Runtime) envelope(kind msgKind, from, to earth.NodeID, ready sim.Time, wire, bytes int) (*msg, sim.Time) {
	arrival := rt.send(ready, from, to, wire)
	m := rt.newMsg()
	m.kind = kind
	m.from, m.to = from, to
	m.bytes = bytes
	m.issue = ready
	m.recvCost = rt.recvCost(kind, bytes)
	return m, arrival
}

// recvCost is the receiver-side software overhead of one message kind.
func (rt *Runtime) recvCost(kind msgKind, bytes int) sim.Time {
	switch kind {
	case msgSync:
		return rt.cfg.Costs.SpawnLocal
	case msgStealReq:
		return rt.cfg.Costs.AsyncRecv
	}
	return rt.cfg.Costs.RecvCost(bytes, kind == msgGetReq)
}

// deliver applies the fault plan to remote envelope m and routes it toward
// its target. issue is when the sender-side software finished; arrival is
// the clean arrival. The protocol core (earth.PlanDelivery) decides the
// message's fate from the sender's injector lane; this engine's part is
// the transport: no real timer events are scheduled — the envelope simply
// lands later — so clean portions of the run and quiescence detection are
// untouched, and the delay only ever moves the arrival later, which keeps
// the lookahead a lower bound. A duplicated message
// is a cloned envelope with the same sequence number one base timeout
// behind; the receiver keeps the first copy (the core's idempotent-
// delivery check, see receive).
func (rt *Runtime) deliver(issue, arrival sim.Time, m *msg) {
	if rt.injs == nil {
		rt.routeMsg(arrival, m)
		return
	}
	if m.issue == 0 {
		m.issue = issue
	}
	// Stamp the sender's incarnation epoch at issue. The receiver's fencing
	// check compares it against the epoch current at arrival; epochs only
	// advance at quiesced fence boundaries, so the comparison is a pure
	// function of issue and fire times.
	m.sendEpoch = rt.take.Epoch(m.from)
	d := earth.PlanDelivery(rt.injs[m.from], rt.retry, rt.plan, m.from, m.to, m.bytes, issue, rt.sink)
	m.seq, m.drops, m.corrupts, m.dup = d.Seq, uint16(d.Drops), uint16(d.Corrupts), d.Dup
	sender := rt.nodes[m.from]
	sender.acct.Stats.FaultsInjected += d.FaultsInjected
	sender.acct.Stats.Retries += d.Retries
	arrival += d.Delay
	if d.Dup {
		// Each copy is routed from its own arrival: the clone trails by one
		// base timeout and may cross a later detection boundary, failing
		// over further along the adoption ring than the original.
		rt.routeMsg(arrival+earth.RetryTimeout, rt.cloneMsg(m))
	}
	rt.routeMsg(arrival, m)
}

// routeMsg finalises an envelope's target and arrival (static crash-stop
// routing) and hands it over: mid-window it joins the outbox, to enter the
// queue in canonical order at the barrier; between windows it goes
// straight into the queue. The lookahead guarantees the arrival lies at or
// beyond the current window's end, so neither path can schedule into the
// past.
func (rt *Runtime) routeMsg(arrival sim.Time, m *msg) {
	m.origTo = m.to
	if rt.take.CrashAt != nil || len(rt.take.Fences) > 0 {
		a, dst := rt.walkDown(arrival, m.to, nil)
		if dst != m.to {
			m.rerouted = true
			m.arr0 = arrival
			m.to = dst
		}
		arrival = a
	}
	if rt.atBarrier {
		rt.eng.At(arrival, m.fire)
		return
	}
	if m.to == m.from {
		// Self-delivery: crash rerouting can target the sender itself (an
		// adopted owner answering its own get, or a failover ring that
		// wraps home), and such legs pay local — sub-lookahead — latency.
		// They must not take the outbox: their arrival can precede the
		// window end, and the barrier would insert them into the queue's
		// past. Every other message does take it, even though there is one
		// queue: inserting at send time instead would change the order in
		// which events of one instant run.
		rt.eng.At(arrival, m.fire)
		return
	}
	from := rt.nodes[m.from]
	from.outSeq++
	rt.outbox = append(rt.outbox, outboxEntry{at: arrival, from: m.from, seq: from.outSeq, m: m})
}

// cloneMsg duplicates an envelope for duplicate injection. The copy shares
// the original's closures (or word pointers) and sequence number: whichever
// copy fires second is suppressed by the idempotent-delivery check, so the
// shared closures run at most once. The second is usually the clone, but
// not always: when a crash hold brings both copies to one instant, the
// clone, routed first, fires first.
func (rt *Runtime) cloneMsg(m *msg) *msg {
	d := rt.newMsg()
	fire := d.fire
	*d = *m
	d.fire = fire
	// The original copy (always first in virtual time) carries the drop
	// and corrupt accounting; the trailing duplicate is discarded by the
	// idempotent-delivery check before the corrupt check runs. The clone
	// shares the batch backing array; idempotent delivery guarantees the
	// operations apply at most once.
	d.drops, d.corrupts = 0, 0
	return d
}

// fireMsg applies a message envelope at its scheduled time on its (final)
// target node: the receipt checks, the receiver-side cost stage, then the
// kind's effect.
func (rt *Runtime) fireMsg(m *msg) {
	n := rt.nodes[m.to]
	if m.stage == 0 {
		if rt.injs != nil && !rt.receive(n, m) {
			return
		}
		// Thread arrivals pay their receive cost at dispatch (item.recvCost);
		// every other kind pays it here, before its effect.
		if m.kind != msgThread && rt.stageRecv(m, n, m.recvCost) {
			return
		}
	}
	switch m.kind {
	case msgSync:
		rt.fireSync(n, m)
	case msgThread:
		rt.fireThread(n, m)
	case msgPost:
		rt.firePost(n, m)
	case msgPut:
		rt.firePut(n, m)
	case msgGetReq:
		rt.fireGetReq(n, m)
	case msgGetResp:
		rt.fireGetResp(n, m)
	case msgStealReq:
		rt.fireStealReq(n, m)
	case msgStealGrant:
		rt.fireStealGrant(n, m)
	case msgBatch:
		rt.fireBatch(n, m)
	default:
		panic(fmt.Sprintf("simrt: unknown message kind %d", m.kind))
	}
}

// receive runs the protocol core's receipt checks (earth.Receive: fencing
// NACK, idempotent delivery, recovered/corrupt accounting) on an envelope
// arriving under a fault plan, and accounts crash-stop failovers at
// arrival, mirroring the pre-computed routing done at send time. It
// reports whether the message is to be applied; a rejected envelope has
// been freed.
func (rt *Runtime) receive(n *node, m *msg) bool {
	// Filled field by field: a composite literal is built in a temporary
	// and block-copied, which showed as 2.6 % of a faulted storm's profile.
	var a earth.Arrival
	a.From, a.Bytes, a.Issue = m.from, m.bytes, m.issue
	a.Seq, a.Drops, a.Corrupts, a.Dup = m.seq, int(m.drops), int(m.corrupts), m.dup
	a.SendEpoch, a.Epoch, a.Rerouted = m.sendEpoch, rt.take.Epoch(m.from), m.rerouted
	v, reroute := earth.Receive(&a, &rt.seen, rt.eng.Now(), n.id, &n.acct.Stats, rt.sink)
	if reroute {
		rt.emitReroute(m)
	}
	if v != earth.Fire {
		rt.freeMsg(m)
		return false
	}
	return true
}

// fireSync decrements the slot on n — the node the sync was routed to,
// not necessarily m.f.Home: after a crash it lands on the frame's adopter.
func (rt *Runtime) fireSync(n *node, m *msg) {
	from, f, slot := m.from, m.f, m.slot
	rt.freeMsg(m)
	rt.decSlot(n, from, rt.eng.Now(), f, slot)
}

// firePost runs an active-message handler on n's handler path.
func (rt *Runtime) firePost(n *node, m *msg) {
	body := m.body
	rt.freeMsg(m)
	rt.execHandlerBody(n, body)
}

// firePut applies a remote write on its owner n.
func (rt *Runtime) firePut(n *node, m *msg) {
	from, f, slot := m.from, m.f, m.slot
	bytes, issue, write := m.bytes, m.issue, m.write
	rt.freeMsg(m)
	rt.applyPut(n, from, write, bytes, issue, f, slot)
}

// fireThread lands an invoke or placed token on dst's ready queue.
func (rt *Runtime) fireThread(dst *node, m *msg) {
	now := rt.eng.Now()
	dst.acct.Deliver(earth.ThreadDeliver(m.cause), now, m.issue, m.from, m.bytes)
	it := item{body: m.body, recvCost: m.recvCost, enq: now, cause: m.cause}
	rt.freeMsg(m)
	rt.enqueue(dst, it)
}

// applyPut performs a remote write's effect on its owner n at the current
// event time and signals the completion slot.
func (rt *Runtime) applyPut(n *node, from earth.NodeID, write func(), bytes int, issue sim.Time, f *earth.Frame, slot int) {
	write()
	now := rt.eng.Now()
	n.acct.Deliver(earth.EvPutDeliver, now, issue, from, bytes)
	rt.signal(n, n.id, now, f, slot)
}

// signal delivers a split-phase operation's completion signal from the
// executing node n: a local decrement when n owns f's home (from names the
// signalling node), a sync message to the home otherwise. f may be nil.
func (rt *Runtime) signal(n *node, from earth.NodeID, now sim.Time, f *earth.Frame, slot int) {
	if f == nil {
		return
	}
	if rt.take.Owner(f.Home) == n.id {
		rt.decSlot(n, from, now, f, slot)
	} else {
		rt.sendSyncAt(now, n.id, f, slot)
	}
}

// retarget converts a fired request envelope in place into its reply leg
// from the executing node back to the requester. The reply is a fresh
// transmission: it gets its own fault verdict and sequence number, while
// m.issue keeps the request's issue so the reply's deliver event reports
// the full round trip.
func (rt *Runtime) retarget(m *msg, kind msgKind) {
	m.kind = kind
	m.stage = 0
	m.from, m.to = m.to, m.from
	m.seq, m.drops, m.corrupts = 0, 0, 0
	m.dup, m.rerouted, m.arr0 = false, false, 0
	m.recvCost = rt.recvCost(kind, m.bytes)
}

// fireGetReq reads the payload on the owner and ships the response leg.
func (rt *Runtime) fireGetReq(owner *node, m *msg) {
	if m.read != nil {
		m.deliver = m.read()
		m.read = nil
	} else {
		m.word = *m.src
	}
	rt.retarget(m, msgGetResp)
	now := rt.eng.Now()
	arrival := rt.send(now, owner.id, m.to, m.bytes)
	rt.deliver(now, arrival, m)
}

// fireGetResp lands the payload back on the requester and signals the
// completion slot on the owner's behalf.
func (rt *Runtime) fireGetResp(src *node, m *msg) {
	owner, f, slot := m.from, m.f, m.slot
	bytes, issue, deliverFn := m.bytes, m.issue, m.deliver
	dst, word := m.dst, m.word
	rt.freeMsg(m)
	if deliverFn != nil {
		deliverFn()
	} else {
		*dst = word
	}
	now := rt.eng.Now()
	src.acct.Deliver(earth.EvGetDeliver, now, issue, owner, bytes)
	rt.signal(src, owner, now, f, slot)
}

// fireStealReq serves a steal request at the victim: a miss note when the
// pool is dry, else the victim's oldest token (largest subtree, for
// tree-shaped workloads) shipped as the grant leg.
func (rt *Runtime) fireStealReq(victim *node, m *msg) {
	thief := m.from
	now := rt.eng.Now()
	if victim.tokens.Len() == 0 {
		rt.freeMsg(m)
		rt.sink.Event(earth.Event{Time: now, Node: thief, Peer: victim.id, Kind: earth.EvStealMiss})
		// The thief learns of the miss (and becomes eligible for
		// re-matching) at the next barrier.
		rt.misses = append(rt.misses, missNote{at: now, thief: thief})
		return
	}
	tk := victim.tokens.PopFront()
	m.body = tk.body
	m.bytes = tk.argBytes
	rt.retarget(m, msgStealGrant)
	grantIssue := now + rt.cfg.Costs.AsyncSend
	arrival := rt.send(grantIssue, victim.id, thief, tk.argBytes)
	rt.deliver(grantIssue, arrival, m)
}

// fireStealGrant lands a stolen token on the thief.
func (rt *Runtime) fireStealGrant(thief *node, m *msg) {
	thief.stealing = false
	victimID, issue, bytes, body := m.from, m.issue, m.bytes, m.body
	rt.freeMsg(m)
	now := rt.eng.Now()
	thief.acct.Deliver(earth.EvStealGrant, now, issue, victimID, bytes)
	rt.enqueue(thief, item{body: body, enq: now, cause: earth.CauseSteal})
}

// fireBatch applies a coalesced envelope's operations in issue order, all
// at the batch's single effect instant, through the same helpers the
// unbatched kinds use; the receiver-side overhead was charged once for the
// whole batch — the amortisation the coalescer models. The operations'
// slice then goes back to the sender's coalescer, unless the envelope was
// duplicated: a clone shares the slice and may not have fired yet.
func (rt *Runtime) fireBatch(n *node, m *msg) {
	from, ops, shared := m.from, m.batch, m.dup
	rt.freeMsg(m)
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case msgSync:
			rt.decSlot(n, from, rt.eng.Now(), op.f, op.slot)
		case msgPut:
			rt.applyPut(n, from, op.write, op.bytes, op.issue, op.f, op.slot)
		case msgPost:
			rt.execHandlerBody(n, op.body)
		default:
			panic(fmt.Sprintf("simrt: kind %d inside a batch", op.kind))
		}
	}
	if !shared {
		rt.nodes[from].coal.Recycle(ops)
	}
}

// consumesCPUOnRecv reports whether receiver-side overhead steals processor
// time from application threads. EARTH's Synchronization Unit / polling
// watchdog absorbs the microsecond-scale handling; the message-passing
// models process messages on the application processor.
func (rt *Runtime) consumesCPUOnRecv() bool {
	return rt.cfg.Costs.SyncRecv >= 50*sim.Microsecond
}

// sendSyncAt charges the network for an 8-byte sync signal issued by from
// at ready and schedules its pooled delivery envelope at the node holding
// f's home's frames: the home, or its adopter once it was handed over.
func (rt *Runtime) sendSyncAt(ready sim.Time, from earth.NodeID, f *earth.Frame, slot int) {
	m, arrival := rt.envelope(msgSync, from, rt.take.Owner(f.Home), ready, 8, 8)
	m.f, m.slot = f, slot
	rt.deliver(ready, arrival, m)
}

// decSlot decrements a slot on its home node and enqueues the enabled
// thread when it fires. at is the virtual time of the decrement (the
// caller's cursor for local syncs, the handler effect time for remote
// ones); from is the signalling node. n is always the executing node.
func (rt *Runtime) decSlot(n *node, from earth.NodeID, at sim.Time, f *earth.Frame, slot int) {
	if body := n.acct.Signal(at, from, f, slot); body != nil {
		rt.enqueue(n, item{body: body, enq: at, cause: earth.CauseSync})
	}
}

// send charges the network for a message and returns its arrival time.
// ready is the virtual time the sender-side software finished.
func (rt *Runtime) send(ready sim.Time, src, dst earth.NodeID, payload int) sim.Time {
	// The wire size includes the end-to-end checksum when the plan can
	// corrupt payloads (NodeAcct.Checksum); plans without corrupt=
	// serialise exactly the pre-checksum format.
	return rt.mach.Send(ready, int(src), int(dst), rt.nodes[src].acct.Sent(payload))
}

// depositToken adds a token to n's pool. cursor is the depositing thread's
// current virtual time. Idle thieves are matched against the pool at the
// next window barrier (receiver-initiated balancing needs a consistent
// view of every pool, which only the barrier has).
func (rt *Runtime) depositToken(n *node, cursor sim.Time, tk token) sim.Time {
	tk.enq = cursor
	n.tokens.Push(tk)
	n.hungry = false
	if !n.running {
		n.running = true
		rt.eng.After(0, n.dispatchFn)
	}
	return cursor
}

// ctx implements earth.Ctx for one executing thread body.
type ctx struct {
	rt     *Runtime
	n      *node
	cursor sim.Time
	dead   bool
}

var (
	_ earth.Ctx        = (*ctx)(nil)
	_ earth.WordGetter = (*ctx)(nil)
)

func (c *ctx) check() {
	if c.dead {
		panic("simrt: Ctx used after its thread body returned")
	}
}

func (c *ctx) Node() earth.NodeID { return c.n.id }
func (c *ctx) P() int             { return len(c.rt.nodes) }
func (c *ctx) Now() sim.Time      { return c.cursor }
func (c *ctx) Rand() *rand.Rand   { return c.n.rand() }

func (c *ctx) Compute(d sim.Time) {
	c.check()
	if d < 0 {
		panic("simrt: negative compute time")
	}
	if j := c.rt.cfg.JitterPct; j > 0 {
		f := 1 + (c.n.rand().Float64()*2-1)*j/100
		d = sim.Time(float64(d) * f)
	}
	c.cursor += d
}

func (c *ctx) Spawn(f *earth.Frame, thread int) {
	c.check()
	if f.Home != c.n.id && c.rt.take.Owner(f.Home) != c.n.id {
		panic(fmt.Sprintf("simrt: Spawn of frame on node %d from node %d; use Invoke or Sync", f.Home, c.n.id))
	}
	c.cursor += c.rt.cfg.Costs.SpawnLocal
	c.n.acct.San.Track(f)
	c.rt.enqueue(c.n, item{body: f.ThreadBody(thread), enq: c.cursor, cause: earth.CauseSpawn})
}

func (c *ctx) Sync(f *earth.Frame, slot int) {
	c.check()
	owner := c.rt.take.Owner(f.Home)
	if owner == c.n.id {
		c.cursor += c.rt.cfg.Costs.SpawnLocal
		c.rt.decSlot(c.n, c.n.id, c.cursor, f, slot)
		return
	}
	if c.rt.coalOn {
		// The send overhead is charged once per batch at flush; a sync
		// carries no payload to serialise at issue.
		c.n.coal.Add(c, owner, coalOp{kind: msgSync, f: f, slot: slot,
			bytes: 8, issue: c.cursor}, 8)
		return
	}
	c.cursor += c.rt.cfg.Costs.AsyncSend
	c.rt.sendSyncAt(c.cursor, c.n.id, f, slot)
}

func (c *ctx) Put(owner earth.NodeID, nbytes int, write func(), f *earth.Frame, slot int) {
	c.check()
	rt := c.rt
	if owner == c.n.id {
		// Local "remote" write: immediate effect, local sync.
		c.cursor += rt.cfg.Costs.SpawnLocal
		write()
		if f != nil {
			c.Sync(f, slot)
		}
		return
	}
	if rt.coalOn {
		// Charge the per-byte serialisation now; the shared per-message
		// overhead and header are paid once per batch at flush.
		c.cursor += rt.cfg.Costs.CopyCost(nbytes)
		issue := c.cursor
		c.n.acct.Issue(earth.EvPutSend, issue, owner, nbytes)
		c.n.coal.Add(c, owner, coalOp{kind: msgPut, f: f, slot: slot, write: write,
			bytes: nbytes, issue: issue}, nbytes)
		return
	}
	c.cursor += rt.cfg.Costs.SendCost(nbytes, false)
	issue := c.cursor
	c.n.acct.Issue(earth.EvPutSend, issue, owner, nbytes)
	m, arrival := rt.envelope(msgPut, c.n.id, owner, issue, nbytes, nbytes)
	m.f, m.slot, m.write = f, slot, write
	rt.deliver(issue, arrival, m)
}

func (c *ctx) Get(owner earth.NodeID, nbytes int, read func() func(), f *earth.Frame, slot int) {
	c.get(owner, nbytes, read, nil, nil, f, slot)
}

// GetWord implements earth.WordGetter: Get of one word, carried in the
// envelope.
func (c *ctx) GetWord(owner earth.NodeID, src, dst *uint64, f *earth.Frame, slot int) {
	c.get(owner, earth.SizeI64, nil, src, dst, f, slot)
}

// get is the request path of both Get forms: read, or — when read is nil —
// the word at src stored into dst.
func (c *ctx) get(owner earth.NodeID, nbytes int, read func() func(), src, dst *uint64, f *earth.Frame, slot int) {
	c.check()
	rt := c.rt
	if owner == c.n.id {
		c.cursor += rt.cfg.Costs.SpawnLocal
		if read != nil {
			read()()
		} else {
			*dst = *src
		}
		if f != nil {
			c.Sync(f, slot)
		}
		return
	}
	if rt.coalOn {
		// Gets are never coalesced, but the request must not overtake
		// batched traffic already buffered for the owner.
		c.n.coal.FlushTo(c, owner)
	}
	// Request leg: small message, sender pays the synchronous overhead.
	c.cursor += rt.cfg.Costs.SendCost(0, true)
	issue := c.cursor
	c.n.acct.Issue(earth.EvGetSend, issue, owner, nbytes)
	m, arrival := rt.envelope(msgGetReq, c.n.id, owner, issue, 8, nbytes)
	m.f, m.slot, m.read, m.src, m.dst = f, slot, read, src, dst
	rt.deliver(issue, arrival, m)
}

func (c *ctx) Invoke(nodeID earth.NodeID, argBytes int, body earth.ThreadBody) {
	c.check()
	rt := c.rt
	if nodeID == c.n.id {
		c.cursor += rt.cfg.Costs.SpawnLocal
		rt.enqueue(c.n, item{body: body, enq: c.cursor, cause: earth.CauseInvoke})
		return
	}
	if rt.coalOn {
		c.n.coal.FlushTo(c, nodeID)
	}
	c.cursor += rt.cfg.Costs.SendCost(argBytes, false)
	issue := c.cursor
	c.n.acct.Issue(earth.EvInvokeSend, issue, nodeID, argBytes)
	m, arrival := rt.envelope(msgThread, c.n.id, nodeID, issue, argBytes, argBytes)
	m.body, m.cause = body, earth.CauseInvoke
	rt.deliver(issue, arrival, m)
}

// Post delivers handler on the target's message-handling path: its effect
// occurs at arrival plus the receiver-side cost, without waiting for the
// target's current thread to finish (the Synchronization-Unit / polling-
// watchdog model). The handler runs with a Ctx of its own; its execution
// time is accounted to the node but only delays the node's thread
// dispatching under cost models that consume the CPU on receive.
func (c *ctx) Post(nodeID earth.NodeID, argBytes int, handler earth.ThreadBody) {
	c.check()
	rt := c.rt
	if nodeID == c.n.id {
		// Local post: handled immediately after the current thread's
		// current point; modelled as a local spawn on the handler path.
		c.cursor += rt.cfg.Costs.SpawnLocal
		m := rt.newMsg()
		m.kind = msgPost
		m.from, m.to = c.n.id, nodeID
		m.body = handler
		m.recvCost = 0
		// Local posts bypass deliver, so the fencing stamp happens here:
		// without it a rejoined node's own posts would carry epoch 0 and
		// self-fence forever.
		m.sendEpoch = rt.take.Epoch(c.n.id)
		rt.eng.At(c.cursor, m.fire)
		return
	}
	if rt.coalOn {
		c.cursor += rt.cfg.Costs.CopyCost(argBytes)
		c.n.acct.Issue(earth.EvPostSend, c.cursor, nodeID, argBytes)
		c.n.coal.Add(c, nodeID, coalOp{kind: msgPost, body: handler,
			bytes: argBytes, issue: c.cursor}, argBytes)
		return
	}
	c.cursor += rt.cfg.Costs.SendCost(argBytes, false)
	c.n.acct.Issue(earth.EvPostSend, c.cursor, nodeID, argBytes)
	m, arrival := rt.envelope(msgPost, c.n.id, nodeID, c.cursor, argBytes, argBytes)
	m.body = handler
	rt.deliver(c.cursor, arrival, m)
}

func (c *ctx) Token(argBytes int, body earth.ThreadBody) {
	c.check()
	rt := c.rt
	target, placed := earth.PlaceToken(rt.cfg.Balancer, len(rt.nodes), c.n.rand, &c.n.rr)
	switch {
	case !placed: // BalanceSteal, BalanceNone
		c.cursor += rt.cfg.Costs.SpawnLocal
		c.n.acct.Issue(earth.EvTokenSpawn, c.cursor, earth.NoPeer, argBytes)
		c.cursor = rt.depositToken(c.n, c.cursor, token{body: body, argBytes: argBytes})
	case target == c.n.id:
		c.cursor += rt.cfg.Costs.SpawnLocal
		c.n.acct.Issue(earth.EvTokenSpawn, c.cursor, target, argBytes)
		rt.enqueue(c.n, item{body: body, enq: c.cursor, cause: earth.CauseToken})
	default:
		if rt.coalOn {
			c.n.coal.FlushTo(c, target)
		}
		c.cursor += rt.cfg.Costs.SendCost(argBytes, false)
		c.n.acct.Issue(earth.EvTokenSpawn, c.cursor, target, argBytes)
		m, arrival := rt.envelope(msgThread, c.n.id, target, c.cursor, argBytes, argBytes)
		m.body, m.cause = body, earth.CauseToken
		rt.deliver(c.cursor, arrival, m)
	}
}
