// Package livert executes the EARTH model with real concurrency: one
// executor goroutine per node, with message delivery and sync-slot
// mutation always performed on the owning node's executor. It exists to
// validate that programs written against earth.Ctx are genuinely correct
// concurrent programs (they run race-detector clean and produce the same
// results as the simulator), complementing simrt, which models time.
//
// Differences from simrt, by design:
//
//   - Compute is a no-op: real computation takes real time.
//   - Cost models are ignored; Stats.Busy is measured wall time per node.
//   - Work stealing is shared-memory style: an idle executor pops a token
//     directly from a victim's pool under the victim's lock, rather than
//     exchanging steal-request messages. Steal events therefore appear as
//     grants only (no request/miss protocol), with zero round-trip time.
//   - Config.UtilSamplePeriod is ignored; with a Config.Tracer installed,
//     events carry wall-clock nanoseconds since run start and are emitted
//     concurrently from every executor (the Tracer must be thread-safe).
//
// Quiescence is detected with an outstanding-work counter covering queued
// items, pooled tokens and in-flight messages: when it reaches zero the
// run is complete.
//
// # What a dispatch costs
//
// This is the engine whose thread-switch and communication start-up
// overheads are real host time, so the clean path pays no fixed cost per
// dispatched thread or handler beyond the dequeue, the body and one clock
// reading:
//
//   - Each executor owns one context, reset and handed to body after
//     body, as simrt recycles its own. It is dead whenever no body runs on
//     that executor, so a Ctx kept past its body's return still panics when
//     used after the run or between bodies; used while a later body runs on
//     the same executor it is indistinguishable from that body's context.
//   - The handler queue, ready queue and token pool are earth.Ring deques —
//     the type simrt's queues use — that keep their storage across Runs.
//   - The clock is read once per dispatch. The reading taken when a body
//     returns is that body's end and, when the executor goes straight on to
//     its next queued item, the next body's start; after a steal, an idle
//     wait, a pause window or a fence park it reads the clock again.
//     Stats.Busy therefore spans back-to-back bodies without gaps: it
//     includes the dequeue between them, which is the node's own overhead,
//     and excludes stealing and waiting.
//   - Time stamps only a trace event reports (when an item or token was
//     queued, when a Put, Get or placed token was issued) are taken only
//     with a Config.Tracer installed.
package livert

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// item is a unit of work executed by a node's executor goroutine.
type item struct {
	body    earth.ThreadBody
	enq     sim.Time // run-relative time the work became ready; stamped only under a tracer
	cause   earth.Cause
	token   bool
	stolen  bool
	handler bool
}

// ltoken is a pooled load-balanced invocation.
type ltoken struct {
	body earth.ThreadBody
	enq  sim.Time // deposit time; stamped only under a tracer
}

type lnode struct {
	id earth.NodeID
	rt *Runtime

	// mu guards the three queues, which keep their storage from Run to
	// Run, and redirect.
	mu       sync.Mutex
	handlers earth.Ring[earth.ThreadBody] // runtime message handlers: highest priority
	ready    earth.Ring[item]             // ready threads
	tokens   earth.Ring[ltoken]           // stealable token pool
	// redirect is -1 while the node owns its queues; once a crash is
	// detected and the queues are drained it holds the adopter's id, and
	// every push routes there (following chains for repeated failures).
	// Guarded by mu.
	redirect int

	wake chan struct{}
	// rng is the node's random stream, seeded by rand() on the first draw
	// (seeding costs more than the rest of New, and many programs never
	// draw) and continued, never reseeded, across Runs. Accessed only by
	// this node's executor.
	rng     *rand.Rand
	rngSeed int64
	// ctx is the one context every body on this executor runs under, live
	// while a body runs and dead between bodies (see exec).
	ctx ctx

	// dead is set by the crash timer; the executor halts at its next
	// dispatch boundary (the running thread body completes). exited is
	// closed (per run) when the executor goroutine returns, so recovery
	// can wait for the handoff point before draining.
	dead   atomic.Bool
	exited chan struct{}
	// halted is set by the fence timer when a partition outlives the
	// node's lease: the executor parks (it will resume at heal, unlike
	// dead). fenced stays set for the rest of the run once the node has
	// been fenced — ownership of its queues moved to the adopter
	// permanently, and a rejoined node re-enters steal-only. epoch is the
	// node's incarnation epoch, bumped at each fence; senders stamp it on
	// every remote message and receivers reject stale stamps.
	halted atomic.Bool
	fenced atomic.Bool
	epoch  atomic.Uint64

	// stats holds the counters only this node's executor touches (Busy,
	// ThreadsRun, TokensRun, TokensStolen, Syncs); Run reads it after
	// wg.Wait.
	stats earth.NodeStats
	// sanFrames lists the frames first touched on this node's executor
	// during a sanitized run. Appended only from the executor that owns
	// the frame's queues (the adopter after a crash handoff); read by Run
	// after wg.Wait, which orders the accesses.
	sanFrames []*earth.Frame

	// faultStats collects the protocol core's counter deltas for this
	// node. Senders, receivers and timers account from arbitrary
	// goroutines, so it sits behind its own lock; only faulted messages
	// and failovers ever take it.
	statMu     sync.Mutex
	faultStats earth.NodeStats
}

// rand returns the node's random stream.
func (n *lnode) rand() *rand.Rand {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(n.rngSeed))
	}
	return n.rng
}

// account adds the core's counter deltas d to n.
func (n *lnode) account(d earth.NodeStats) {
	n.statMu.Lock()
	n.faultStats.Add(d)
	n.statMu.Unlock()
}

// Runtime is a real-concurrency EARTH machine.
type Runtime struct {
	cfg         earth.Config
	nodes       []*lnode
	tr          earth.Tracer // cached cfg.Tracer; must be thread-safe
	outstanding atomic.Int64
	rrNext      atomic.Int64
	done        chan struct{}
	doneOnce    sync.Once
	start       time.Time
	running     atomic.Bool
	// Fault injection (nil inj = clean run). Penalties are real
	// wall-clock delays armed with timers; pause and degradation windows
	// are interpreted in wall nanoseconds since run start.
	inj   *faults.Injector
	plan  *faults.Plan
	retry earth.RetryPolicy
	// Crash-stop state (nil crashAt = no crash plan). Kill and detection
	// timers are tracked so Run can cancel unfired ones at quiescence and
	// wait out in-flight callbacks before assembling stats.
	crashAt     []sim.Time
	crashMu     sync.Mutex
	crashTimers []*time.Timer
	crashWG     sync.WaitGroup
	// hasPart gates epoch stamping and the receiver-side fencing check;
	// fences is the static wrong-verdict schedule that arms the fence
	// timers; take answers who may adopt a down node's work (never a peer
	// fencing at the same scheduled instant) and holds the cursor for
	// re-placing its tokens; seen is the idempotent-delivery store.
	hasPart bool
	fences  faults.Fences
	take    earth.Takeover
	seen    earth.SeenSet
	// coalOn caches cfg.Coalesce.Enabled for the per-operation hot path.
	coalOn bool
	// sanOn caches cfg.Sanitize: frames are ledgered on first engine
	// contact and scanned at quiescence (see lnode.sanTrack).
	sanOn bool
}

var _ earth.Runtime = (*Runtime)(nil)

// New builds a live runtime from cfg. The cost model and machine fields
// are accepted for interface compatibility but not charged.
func New(cfg earth.Config) *Runtime {
	cfg = cfg.WithDefaults()
	rt := &Runtime{cfg: cfg, tr: cfg.Tracer, coalOn: cfg.Coalesce.Enabled, sanOn: cfg.Sanitize}
	rt.nodes = make([]*lnode, cfg.Nodes)
	for i := range rt.nodes {
		n := &lnode{
			id:       earth.NodeID(i),
			rt:       rt,
			wake:     make(chan struct{}, 1),
			rngSeed:  cfg.Seed*1_000_003 + int64(i),
			redirect: -1,
		}
		n.ctx = ctx{rt: rt, n: n, dead: true}
		rt.nodes[i] = n
	}
	fs, err := cfg.ResolveFaults()
	if err != nil {
		panic("livert: " + err.Error())
	}
	if fs.Plan != nil {
		rt.plan, rt.retry, rt.crashAt, rt.fences = fs.Plan, fs.Retry, fs.CrashAt, fs.Fences
		rt.take.Nodes, rt.take.Fences = cfg.Nodes, fs.Fences
		rt.inj = faults.NewInjector(fs.Plan, cfg.Seed)
		rt.hasPart = fs.Plan.HasPartition()
	}
	return rt
}

// P returns the node count.
func (rt *Runtime) P() int { return len(rt.nodes) }

// now returns wall-clock nanoseconds since run start.
func (rt *Runtime) now() sim.Time { return sim.Time(time.Since(rt.start).Nanoseconds()) }

// Run executes main on node 0 and blocks until the machine is quiescent.
func (rt *Runtime) Run(main earth.ThreadBody) *earth.Stats {
	if !rt.running.CompareAndSwap(false, true) {
		panic("livert: Run called concurrently")
	}
	defer rt.running.Store(false)
	rt.done = make(chan struct{})
	rt.doneOnce = sync.Once{}
	rt.start = time.Now()
	for _, n := range rt.nodes {
		n.handlers.Reset()
		n.ready.Reset()
		n.tokens.Reset()
		n.redirect = -1
		n.stats, n.faultStats = earth.NodeStats{}, earth.NodeStats{}
		n.sanFrames = n.sanFrames[:0]
		n.dead.Store(false)
		n.halted.Store(false)
		n.fenced.Store(false)
		n.epoch.Store(0)
		n.exited = make(chan struct{})
	}
	if rt.inj != nil {
		rt.inj.Reset()
	}
	var wg sync.WaitGroup
	for _, n := range rt.nodes {
		wg.Add(1)
		go func(n *lnode) {
			defer wg.Done()
			defer close(n.exited)
			// Label the executor goroutine so CPU/goroutine profiles
			// scraped through the debug server attribute samples per node.
			pprof.Do(context.Background(),
				pprof.Labels("earth_node", strconv.Itoa(int(n.id))),
				func(lctx context.Context) { n.loop(lctx) })
		}(n)
	}
	rt.take.Reset()
	rt.seen.Reset()
	rt.armPlanTimers()
	rt.enqueue(rt.nodes[0], item{body: main, cause: earth.CauseSpawn})
	<-rt.done
	wg.Wait()
	rt.reapCrashTimers()

	st := &earth.Stats{
		Elapsed: sim.Time(time.Since(rt.start).Nanoseconds()),
		Nodes:   make([]earth.NodeStats, len(rt.nodes)),
	}
	for i, n := range rt.nodes {
		st.Nodes[i] = n.stats
		st.Nodes[i].Add(n.faultStats)
	}
	if rt.sanOn {
		var frames []*earth.Frame
		for _, n := range rt.nodes {
			frames = append(frames, n.sanFrames...)
		}
		st.Sanitize = earth.SanitizeScan(frames, st.Elapsed, rt.tr)
	}
	return st
}

// armCrashTimer schedules fn on a tracked wall-clock timer. Tracked
// timers are cancelled (or waited out) by reapCrashTimers at run end, so
// a crash scheduled beyond the program's natural finish cannot fire into
// the next run.
func (rt *Runtime) armCrashTimer(d sim.Time, fn func()) {
	rt.crashWG.Add(1)
	t := time.AfterFunc(time.Duration(d), func() {
		defer rt.crashWG.Done()
		fn()
	})
	rt.crashMu.Lock()
	rt.crashTimers = append(rt.crashTimers, t)
	rt.crashMu.Unlock()
}

// reapCrashTimers stops every unfired crash/detection/partition timer
// and waits for in-flight callbacks to drain before Run assembles stats.
func (rt *Runtime) reapCrashTimers() {
	if rt.crashAt == nil && !rt.hasPart {
		return
	}
	rt.crashMu.Lock()
	timers := rt.crashTimers
	rt.crashTimers = nil
	rt.crashMu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			rt.crashWG.Done() // callback will never run
		}
	}
	rt.crashWG.Wait()
}

// armPlanTimers arms the fault plan's static schedule at run start: one
// kill timer per crash, one fence timer per wrong verdict, and — for a
// traced run — the partition-window markers. Detection and rejoin timers
// are armed later, by the kill and fence callbacks themselves, so each
// always runs after the callback it completes.
func (rt *Runtime) armPlanTimers() {
	for x, at := range rt.crashAt {
		if at >= 0 {
			rt.armCrashTimer(at, func() { rt.killNode(x) })
		}
	}
	for _, f := range rt.fences {
		rt.armCrashTimer(f.At, func() { rt.fenceNode(f) })
	}
	if !rt.hasPart || rt.tr == nil {
		return
	}
	earth.PartitionMarks(rt.plan, rt.retry.Lease, func(pt faults.Partition, ev earth.Event) {
		rt.armCrashTimer(ev.Time, func() {
			if rt.live() {
				ev.Time = rt.now()
				earth.MarkPartition(rt.tr, pt, len(rt.nodes), ev)
			}
		})
	})
}

// live reports whether the run is still in progress; timer callbacks
// firing past quiescence do nothing.
func (rt *Runtime) live() bool {
	select {
	case <-rt.done:
		return false
	default:
		return true
	}
}

// killNode executes a scheduled crash-stop failure: the node's executor
// halts at its next dispatch boundary (the running thread body, if any,
// completes) and a detection timer is armed for one lease later.
func (rt *Runtime) killNode(x int) {
	n := rt.nodes[x]
	if !rt.live() || n.dead.Swap(true) {
		return
	}
	n.account(earth.NodeFault(rt.tr, n.id, rt.now(), earth.CauseCrash, rt.retry.Lease))
	n.poke()
	rt.armCrashTimer(rt.retry.Lease, func() { rt.recoverNode(n) })
}

// recoverNode fires one lease after a crash: survivors have now missed
// enough heartbeats to declare the node dead. It waits for the dead
// executor's handoff point, then fails the node's queues over to its
// ring successor.
func (rt *Runtime) recoverNode(n *lnode) {
	select {
	case <-rt.done:
		return
	case <-n.exited:
	}
	s := earth.Adopter(n.id, len(rt.nodes),
		func(c earth.NodeID) bool { return rt.nodes[c].dead.Load() })
	rt.failover(n, rt.nodes[s], rt.now(), earth.CauseCrash)
}

// fenceNode executes wrong failure verdict f, one lease into a partition
// window that outlives it: the survivors declare the node dead while the
// node — which has missed the same heartbeats — self-fences. Its
// incarnation epoch is bumped (every receiver will reject its stale
// messages), its executor parks until the heal, and its queues fail over
// to the ring successor exactly as crash recovery does. Ownership of the
// drained queues never returns: the redirect to the adopter is permanent
// and a rejoined node re-enters steal-only.
func (rt *Runtime) fenceNode(f faults.Fence) {
	n := rt.nodes[f.Node]
	if !rt.live() || n.dead.Load() || n.halted.Swap(true) {
		return
	}
	n.fenced.Store(true)
	n.epoch.Add(1)
	n.poke()
	// Same-instant fences race as concurrent timers here, which is why the
	// core's adopter and placement choices consult the static schedule at
	// the fence's scheduled instant, not only the flags set so far. The
	// executor may already have popped an item before the drain; it
	// completes on the halted node (the same dispatch-boundary semantics a
	// crash has).
	rt.failover(n, rt.nodes[rt.take.Adopter(n.id, f.At, rt.gone)], f.At, earth.CausePartition)
	// The rejoin is armed from here, not at run start beside the fence
	// timer: however late the host runs this callback, the heal follows
	// it. It counts as outstanding work, so the run cannot quiesce between
	// a node's fence and its rejoin.
	rt.add()
	rt.armCrashTimer(max(0, f.Heal-rt.now()), func() { rt.rejoinNode(n, f) })
}

// gone reports whether node c is permanently out of the adoption and
// placement rings: crashed, or fenced at some point of the run.
func (rt *Runtime) gone(c earth.NodeID) bool {
	return rt.nodes[c].dead.Load() || rt.nodes[c].fenced.Load()
}

// failover hands down node n's queues to adopter sn: sn declares n dead,
// the queues are drained under n's lock, handlers and queued threads move
// to sn (the frames they reference are treated as checkpointed — host
// memory survives in this embedding), pooled tokens are re-placed across
// the survivors the core picks for schedule instant at, and n's redirect
// is installed so every later push routes to the adopter.
func (rt *Runtime) failover(n, sn *lnode, at sim.Time, cause earth.Cause) {
	h := earth.Handover{Down: n.id, At: rt.now(), Cause: cause, Sink: rt.tr}
	sn.account(h.Declare(sn.id, rt.retry.Lease))
	n.statMu.Lock()
	n.faultStats.DetectionLatency = rt.retry.Lease
	n.statMu.Unlock()
	// The rings leave with their storage; the down node, which nothing is
	// pushed to again this run, keeps empty ones.
	n.mu.Lock()
	handlers, ready, tokens := n.handlers, n.ready, n.tokens
	n.handlers, n.ready, n.tokens = earth.Ring[earth.ThreadBody]{}, earth.Ring[item]{}, earth.Ring[ltoken]{}
	n.redirect = int(sn.id)
	n.mu.Unlock()
	// Moves preserve the outstanding-work count (nothing is re-added) and
	// each queue's order (oldest first).
	for handlers.Len() > 0 {
		rt.pushHandler(sn, handlers.PopFront())
	}
	for ready.Len() > 0 {
		it := ready.PopFront()
		it.enq = h.At
		sn.account(h.Replay(sn.id))
		rt.pushItem(sn, it)
	}
	for tokens.Len() > 0 {
		tn := rt.nodes[rt.take.Place(at, rt.gone)]
		tn.account(h.Reassign(tn.id, 0)) // pooled tokens do not keep their argument size here
		rt.pushToken(tn, tokens.PopFront())
	}
}

// rejoinNode fires when fenced node n's partition heals: it rejoins at
// its bumped epoch, steal-only — the adopter keeps its queues.
func (rt *Runtime) rejoinNode(n *lnode, f faults.Fence) {
	defer rt.doneOne()
	if n.dead.Load() || !n.halted.CompareAndSwap(true, false) {
		return
	}
	n.account(earth.Rejoin(rt.tr, n.id, rt.now(), f.Heal-f.At))
	n.poke()
}

func (rt *Runtime) finish() {
	rt.doneOnce.Do(func() { close(rt.done) })
}

// add increments the outstanding-work counter.
func (rt *Runtime) add() { rt.outstanding.Add(1) }

// doneOne decrements the counter and finishes the run at zero.
func (rt *Runtime) doneOne() {
	if rt.outstanding.Add(-1) == 0 {
		rt.finish()
	}
}

// enqueue adds a ready item on n (counted as outstanding work).
func (rt *Runtime) enqueue(n *lnode, it item) {
	rt.add()
	if rt.tr != nil {
		it.enq = rt.now()
	}
	rt.pushItem(n, it)
}

// enqueueHandler adds a runtime message handler on n.
func (rt *Runtime) enqueueHandler(n *lnode, h earth.ThreadBody) {
	rt.add()
	rt.pushHandler(n, h)
}

// owner returns, locked, the node that currently owns n's queues: n
// itself, or its transitive adopter once crash or fence redirects are
// installed.
func (rt *Runtime) owner(n *lnode) *lnode {
	for {
		n.mu.Lock()
		r := n.redirect
		if r < 0 {
			return n
		}
		n.mu.Unlock()
		n = rt.nodes[r]
	}
}

// pushItem appends it to the ready queue of n's owner. Push helpers do
// not touch the outstanding-work count, so they also serve recovery's
// queue moves.
func (rt *Runtime) pushItem(n *lnode, it item) {
	o := rt.owner(n)
	o.ready.Push(it)
	o.mu.Unlock()
	o.poke()
}

// pushHandler appends a handler on n's owner.
func (rt *Runtime) pushHandler(n *lnode, h earth.ThreadBody) {
	o := rt.owner(n)
	o.handlers.Push(h)
	o.mu.Unlock()
	o.poke()
}

// pushToken appends a pooled token on n's owner.
func (rt *Runtime) pushToken(n *lnode, tk ltoken) {
	o := rt.owner(n)
	o.tokens.Push(tk)
	o.mu.Unlock()
	o.poke()
}

// adopted reports whether work homed on home now runs on n because crash
// or fence redirects route home's queues there.
func (rt *Runtime) adopted(home earth.NodeID, n *lnode) bool {
	if rt.crashAt == nil && !rt.hasPart {
		return false
	}
	o := rt.owner(rt.nodes[home])
	o.mu.Unlock()
	return o == n
}

// sendHandler routes a runtime message handler carrying bytes of payload
// to dst, applying the fault plan to remote legs when one is installed.
func (rt *Runtime) sendHandler(src earth.NodeID, dst *lnode, bytes int, h earth.ThreadBody) {
	if rt.inj == nil || dst.id == src {
		rt.enqueueHandler(dst, h)
		return
	}
	rt.faultVerdict(src, dst, bytes, h, func(h earth.ThreadBody) { rt.enqueueHandler(dst, h) })
}

// sendItem routes a ready item (INVOKE or a placed token) to dst under
// the fault plan. A suppressed duplicate still dispatches as an item
// whose body is a no-op, so livert's thread counters can include
// suppressed copies — acceptable on the wall-clock engine.
func (rt *Runtime) sendItem(src earth.NodeID, dst *lnode, bytes int, it item) {
	remoteToken := it.token && dst.id != src
	var issue sim.Time // read only by the traced deliver event
	if remoteToken && rt.tr != nil {
		issue = rt.now()
	}
	deliver := func(body earth.ThreadBody) {
		if remoteToken && rt.tr != nil {
			now := rt.now()
			rt.tr.Event(earth.Event{Time: now, Node: dst.id, Peer: src,
				Kind: earth.EvTokenDeliver, Dur: now - issue})
		}
		landed := it
		landed.body = body
		rt.enqueue(dst, landed)
	}
	if rt.inj == nil || dst.id == src {
		deliver(it.body)
		return
	}
	rt.faultVerdict(src, dst, bytes, it.body, deliver)
}

// faultVerdict sends one remote message under the fault plan: the
// protocol core plans its fate (and traces the sender's side of it), the
// body gains the core's receipt checks, and one wall-clock timer — two
// for a duplicated message — carries it to deliver.
func (rt *Runtime) faultVerdict(src earth.NodeID, dst *lnode, bytes int, body earth.ThreadBody, deliver func(earth.ThreadBody)) {
	d := earth.PlanDelivery(rt.inj, rt.retry, rt.plan, src, dst.id, bytes, rt.now(), rt.tr)
	sn := rt.nodes[src]
	if d.FaultsInjected > 0 {
		sn.account(earth.NodeStats{FaultsInjected: d.FaultsInjected, Retries: d.Retries})
	}
	if d.Faulted() || rt.hasPart {
		body = rt.receiptBody(earth.Arrival{From: src, Bytes: bytes, Issue: rt.now(),
			Seq: d.Seq, Drops: d.Drops, Corrupts: d.Corrupts, Dup: d.Dup,
			SendEpoch: sn.epoch.Load()}, body)
	}
	rt.deliverAfter(d.Delay, func() { deliver(body) })
	if d.Dup {
		rt.deliverAfter(d.Delay+rt.retry.AttemptTimeout(0), func() { deliver(body) })
	}
}

// receiptBody wraps a delivered body with the protocol core's receipt
// checks (earth.Receive: fencing NACK, idempotent delivery, recovered and
// corrupt accounting), run on whichever executor ends up with the message
// — the adopter, if redirects moved it. a carries the sender's epoch as
// stamped at issue; the epoch current at receipt is read here.
func (rt *Runtime) receiptBody(a earth.Arrival, h earth.ThreadBody) earth.ThreadBody {
	return func(c earth.Ctx) {
		a := a
		a.Epoch = rt.nodes[a.From].epoch.Load()
		var d earth.NodeStats
		v, _ := earth.Receive(&a, &rt.seen, rt.now(), c.Node(), &d, rt.tr)
		if d != (earth.NodeStats{}) {
			rt.nodes[c.Node()].account(d)
		}
		if v == earth.Fire {
			h(c)
		}
	}
}

// deliverAfter runs deliver after the modelled wall-clock penalty. The
// pending delivery stays counted as outstanding work, so quiescence
// detection waits for faulted messages still in flight.
func (rt *Runtime) deliverAfter(d sim.Time, deliver func()) {
	if d <= 0 {
		deliver()
		return
	}
	rt.add()
	time.AfterFunc(time.Duration(d), func() {
		deliver()
		rt.doneOne()
	})
}

func (n *lnode) poke() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// next pops the highest-priority available work: handlers, then ready
// threads, then own tokens (newest first).
func (n *lnode) next() (item, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.handlers.Len() > 0 {
		return item{body: n.handlers.PopFront(), handler: true, cause: earth.CauseHandler}, true
	}
	if n.ready.Len() > 0 {
		return n.ready.PopFront(), true
	}
	if n.tokens.Len() > 0 {
		tk := n.tokens.PopBack()
		return item{body: tk.body, enq: tk.enq, token: true, cause: earth.CauseToken}, true
	}
	return item{}, false
}

// steal pops the oldest token from a random victim's pool.
func (n *lnode) steal() (item, bool) {
	if n.rt.cfg.Balancer != earth.BalanceSteal {
		return item{}, false
	}
	p := len(n.rt.nodes)
	off := n.rand().Intn(p)
	for i := 0; i < p; i++ {
		v := n.rt.nodes[(off+i)%p]
		if v == n || v.dead.Load() {
			continue
		}
		v.mu.Lock()
		if v.tokens.Len() > 0 {
			tk := v.tokens.PopFront()
			v.mu.Unlock()
			it := item{body: tk.body, token: true, stolen: true, cause: earth.CauseSteal}
			if n.rt.tr != nil {
				// Shared-memory steal: a direct pool pop, so the "grant"
				// has no request leg and no round trip.
				it.enq = n.rt.now()
				n.rt.tr.Event(earth.Event{Time: it.enq, Node: n.id, Peer: v.id,
					Kind: earth.EvStealGrant})
			}
			return it, true
		}
		v.mu.Unlock()
	}
	return item{}, false
}

// loop is the executor: it drains work until the runtime is quiescent
// or the node crash-stops. lctx carries the goroutine's earth_node
// pprof label so per-body earth_kind labels merge with it instead of
// replacing the label set.
//
// The clock is read once per dispatch: at is the reading exec took when
// the previous body returned, and while fresh — nothing but a dequeue has
// happened since — it is also the next body's start. Stealing, sleeping,
// pausing and parking all take time that is not the node's work, so each
// makes the executor read the clock again.
func (n *lnode) loop(lctx context.Context) {
	rt := n.rt
	var at sim.Time
	fresh := false
	for {
		if n.dead.Load() {
			return
		}
		// A fenced node parks until the heal timer clears halted and
		// pokes the wake channel (the rejoin handshake). Unlike dead,
		// the executor stays alive to resume as a steal-only worker.
		if n.halted.Load() {
			fresh = false
			select {
			case <-rt.done:
				return
			case <-n.wake:
				continue
			}
		}
		it, ok := n.next()
		if !ok {
			fresh = false
			it, ok = n.steal()
		}
		if !ok {
			select {
			case <-rt.done:
				return
			case <-n.wake:
				continue
			case <-time.After(200 * time.Microsecond):
				continue // re-scan pools: a victim may have deposited tokens
			}
		}
		// A paused node holds its work until the window closes. Queues
		// keep filling behind it; nothing executes.
		if rt.plan.HasPause() {
			at, fresh = rt.now(), true
			if pu := rt.plan.PauseUntil(int(n.id), at); pu > at {
				n.account(earth.NodeFault(rt.tr, n.id, at, earth.CausePause, pu-at))
				time.Sleep(time.Duration(pu - at))
				fresh = false
			}
		}
		if !fresh {
			at = rt.now()
		}
		at, fresh = n.exec(lctx, it, at), true
		rt.doneOne()
		select {
		case <-rt.done:
			return
		default:
		}
	}
}

// exec runs it, dispatched at start, under the node's context and returns
// the clock reading taken when the body returned: the end of its busy
// span. The context is live only for the body (and its end-of-body
// coalescing flush); its buffer list is truncated for the next one.
func (n *lnode) exec(lctx context.Context, it item, start sim.Time) sim.Time {
	rt := n.rt
	c := &n.ctx
	c.dead = false
	if rt.cfg.ProfileLabels {
		kind := "thread"
		if it.handler {
			kind = "handler"
		}
		pprof.Do(lctx, pprof.Labels("earth_kind", kind),
			func(context.Context) { it.body(c) })
	} else {
		it.body(c)
	}
	if rt.coalOn {
		c.flushCoal()
	}
	c.dead = true
	end := rt.now()
	n.stats.Busy += end - start
	if !it.handler {
		n.stats.ThreadsRun++
	}
	if it.token {
		n.stats.TokensRun++
		if it.stolen {
			n.stats.TokensStolen++
		}
	}
	if rt.tr != nil {
		kind := earth.EvThreadRun
		if it.handler {
			kind = earth.EvHandlerRun
		}
		wait := start - it.enq
		if it.handler || wait < 0 {
			wait = 0
		}
		rt.tr.Event(earth.Event{Time: start, Node: n.id, Peer: earth.NoPeer,
			Kind: kind, Dur: end - start, Wait: wait, Cause: it.cause})
	}
	return end
}

// decSlot must run on f's home executor; from is the signalling node.
func (n *lnode) decSlot(from earth.NodeID, f *earth.Frame, slot int) {
	n.stats.Syncs++
	if n.rt.tr != nil {
		n.rt.tr.Event(earth.Event{Time: n.rt.now(), Node: n.id, Peer: from,
			Kind: earth.EvSyncSignal})
	}
	n.sanTrack(f)
	if fired, th := f.Dec(slot); fired {
		n.rt.enqueue(n, item{body: f.ThreadBody(th), cause: earth.CauseSync})
	}
}

// sanTrack attaches the sanitize ledger to f on its first engine contact
// and records the frame for the end-of-run scan. All frame operations
// run on the executor owning the frame's queues, so the attach needs no
// lock.
func (n *lnode) sanTrack(f *earth.Frame) {
	if !n.rt.sanOn || f == nil || f.Sanitized() {
		return
	}
	f.BeginSanitize()
	n.sanFrames = append(n.sanFrames, f)
}

// ctx implements earth.Ctx on the live engine. Each executor owns one
// (lnode.ctx), handed to body after body.
type ctx struct {
	rt *Runtime
	n  *lnode
	// dead is set whenever no body is running on the executor: a Ctx kept
	// past its body's return panics when used then — after the run, or
	// from another goroutine while the executor is between bodies. Used
	// while a later body runs on the same executor it is that body's
	// context and the check cannot tell (simrt's recycled contexts share
	// the limit).
	dead bool
	// coal holds the running body's per-destination coalescing buffers,
	// sorted by destination id (see coalesce.go). Unused unless rt.coalOn.
	coal []lcoalBuf
}

var _ earth.Ctx = (*ctx)(nil)

func (c *ctx) check() {
	if c.dead {
		panic("livert: Ctx used after its thread body returned")
	}
}

func (c *ctx) Node() earth.NodeID { return c.n.id }
func (c *ctx) P() int             { return len(c.rt.nodes) }
func (c *ctx) Now() sim.Time      { return c.rt.now() }
func (c *ctx) Rand() *rand.Rand   { return c.n.rand() }

// Compute is a no-op: under livert real computation takes real time.
func (c *ctx) Compute(d sim.Time) {
	c.check()
	if d < 0 {
		panic("livert: negative compute time")
	}
}

func (c *ctx) Spawn(f *earth.Frame, thread int) {
	c.check()
	if f.Home != c.n.id && !c.rt.adopted(f.Home, c.n) {
		panic(fmt.Sprintf("livert: Spawn of frame on node %d from node %d", f.Home, c.n.id))
	}
	c.n.sanTrack(f)
	c.rt.enqueue(c.n, item{body: f.ThreadBody(thread), cause: earth.CauseSpawn})
}

func (c *ctx) Sync(f *earth.Frame, slot int) {
	c.check()
	home := c.rt.nodes[f.Home]
	from := c.n.id
	if home == c.n {
		home.decSlot(from, f, slot)
		return
	}
	if c.rt.coalOn {
		c.coalAdd(home, 8, func(earth.Ctx) { home.decSlot(from, f, slot) })
		return
	}
	c.rt.sendHandler(from, home, 8, func(earth.Ctx) { home.decSlot(from, f, slot) })
}

func (c *ctx) Put(owner earth.NodeID, nbytes int, write func(), f *earth.Frame, slot int) {
	c.check()
	rt := c.rt
	dst := rt.nodes[owner]
	if dst == c.n {
		write()
		if f != nil {
			c.Sync(f, slot)
		}
		return
	}
	src := c.n.id
	var issue sim.Time // read only by the traced deliver event
	if rt.tr != nil {
		issue = rt.now()
		rt.tr.Event(earth.Event{Time: issue, Node: src, Peer: owner,
			Kind: earth.EvPutSend, Bytes: nbytes})
	}
	deliver := func(hc earth.Ctx) {
		write()
		if rt.tr != nil {
			now := rt.now()
			rt.tr.Event(earth.Event{Time: now, Node: owner, Peer: src,
				Kind: earth.EvPutDeliver, Bytes: nbytes, Dur: now - issue})
		}
		if f != nil {
			hc.Sync(f, slot)
		}
	}
	if rt.coalOn {
		c.coalAdd(dst, nbytes, deliver)
		return
	}
	rt.sendHandler(src, dst, nbytes, deliver)
}

func (c *ctx) Get(owner earth.NodeID, nbytes int, read func() func(), f *earth.Frame, slot int) {
	c.check()
	rt := c.rt
	src := c.n
	dst := rt.nodes[owner]
	if dst == c.n {
		read()()
		if f != nil {
			c.Sync(f, slot)
		}
		return
	}
	if rt.coalOn {
		// Gets are never coalesced, but the request must not overtake
		// batched traffic already buffered for the owner.
		c.flushCoalTo(dst)
	}
	var issue sim.Time // read only by the traced deliver event
	if rt.tr != nil {
		issue = rt.now()
		rt.tr.Event(earth.Event{Time: issue, Node: src.id, Peer: owner,
			Kind: earth.EvGetSend, Bytes: nbytes})
	}
	rt.sendHandler(src.id, dst, nbytes, func(earth.Ctx) {
		deliver := read()
		rt.sendHandler(owner, src, nbytes, func(earth.Ctx) {
			deliver()
			if rt.tr != nil {
				now := rt.now()
				rt.tr.Event(earth.Event{Time: now, Node: src.id, Peer: owner,
					Kind: earth.EvGetDeliver, Bytes: nbytes, Dur: now - issue})
			}
			if f != nil {
				// The response semantically carries the sync, so the owner
				// is the signalling node (matches simrt's accounting).
				home := rt.nodes[f.Home]
				if home == src {
					home.decSlot(owner, f, slot)
				} else {
					rt.sendHandler(src.id, home, 8, func(earth.Ctx) { home.decSlot(owner, f, slot) })
				}
			}
		})
	})
}

func (c *ctx) Invoke(nodeID earth.NodeID, argBytes int, body earth.ThreadBody) {
	c.check()
	rt := c.rt
	src := c.n.id
	if rt.coalOn && nodeID != src {
		c.flushCoalTo(rt.nodes[nodeID])
	}
	if rt.tr != nil && nodeID != src {
		issue := rt.now()
		rt.tr.Event(earth.Event{Time: issue, Node: src, Peer: nodeID,
			Kind: earth.EvInvokeSend, Bytes: argBytes})
	}
	rt.sendItem(src, rt.nodes[nodeID], argBytes, item{body: body, cause: earth.CauseInvoke})
}

// Post delivers handler on the target's high-priority handler queue.
func (c *ctx) Post(nodeID earth.NodeID, argBytes int, handler earth.ThreadBody) {
	c.check()
	rt := c.rt
	if rt.tr != nil && nodeID != c.n.id {
		rt.tr.Event(earth.Event{Time: rt.now(), Node: c.n.id, Peer: nodeID,
			Kind: earth.EvPostSend, Bytes: argBytes})
	}
	if rt.coalOn && nodeID != c.n.id {
		c.coalAdd(rt.nodes[nodeID], argBytes, handler)
		return
	}
	rt.sendHandler(c.n.id, rt.nodes[nodeID], argBytes, handler)
}

func (c *ctx) Token(argBytes int, body earth.ThreadBody) {
	c.check()
	rt := c.rt
	switch rt.cfg.Balancer {
	case earth.BalanceRandomPlace:
		target := earth.NodeID(c.n.rand().Intn(len(rt.nodes)))
		if rt.coalOn && target != c.n.id {
			c.flushCoalTo(rt.nodes[target])
		}
		if rt.tr != nil {
			rt.tr.Event(earth.Event{Time: rt.now(), Node: c.n.id, Peer: target,
				Kind: earth.EvTokenSpawn, Bytes: argBytes})
		}
		rt.sendItem(c.n.id, rt.nodes[target], argBytes, item{body: body, token: true, cause: earth.CauseToken})
	case earth.BalanceRoundRobin:
		i := int(rt.rrNext.Add(1)-1) % len(rt.nodes)
		if rt.coalOn && earth.NodeID(i) != c.n.id {
			c.flushCoalTo(rt.nodes[i])
		}
		if rt.tr != nil {
			rt.tr.Event(earth.Event{Time: rt.now(), Node: c.n.id, Peer: earth.NodeID(i),
				Kind: earth.EvTokenSpawn, Bytes: argBytes})
		}
		rt.sendItem(c.n.id, rt.nodes[i], argBytes, item{body: body, token: true, cause: earth.CauseToken})
	default: // BalanceSteal, BalanceNone: pool locally
		tk := ltoken{body: body}
		if rt.tr != nil {
			tk.enq = rt.now()
			rt.tr.Event(earth.Event{Time: tk.enq, Node: c.n.id, Peer: earth.NoPeer,
				Kind: earth.EvTokenSpawn, Bytes: argBytes})
		}
		rt.add()
		rt.pushToken(c.n, tk)
	}
}
