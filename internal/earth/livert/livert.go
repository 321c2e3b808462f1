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
// # Termination by credit
//
// The run is complete when nothing is queued, pooled, running or held by
// a timer. Runtime.outstanding counts that work, but no message writes it:
// both cores would fight over its cache line twice per message. Each
// executor keeps a private reserve of units instead (credit.go, after
// Mattern's and Huang's credit-recovery schemes):
//
//   - work issued from a body takes one unit from the reserve of the
//     executor the body runs on; an empty reserve is refilled with one
//     outstanding.Add(creditChunk);
//   - an item that finishes returns its unit to the reserve of the executor
//     that ran it — not the one that issued it: units travel with the work;
//   - an executor settles — outstanding.Add(-reserve), and the run is over
//     if that reached zero — before every park (the idle wait, the down park);
//   - timers, Run's root thread and what a timer leaves a down node's
//     executor to do (lnode.owed) add and subtract their one unit on the
//     counter directly.
//
// The invariant is
//
//	outstanding = Σ reserves + items queued, pooled, running or timer-held
//
// and an item's unit is attached before the item becomes visible in any
// queue. Were it attached after, the receiver could run the item, return a
// unit it was never given and settle the counter to zero while the sender
// is still inside its body. With it, the counter can reach zero only in a
// settle or in a timer's doneOne, never while any executor is mid-body (its
// running item is counted), so executors do not poll for the end of the run
// between bodies. Moves between queues (failover, a batch handed back) take
// the unit along and touch no count.
//
// # What a dispatch costs
//
// This is the engine whose thread-switch and communication start-up
// overheads are real host time. Sending, dequeuing and completing a message
// on the clean path touch no shared memory but the destination's queue and
// allocate nothing:
//
//   - Each executor owns one context, reset and handed to body after
//     body, as simrt recycles its own. It is dead whenever no body runs on
//     that executor, so a Ctx kept past its body's return still panics when
//     used after the run or between bodies; used while a later body runs on
//     the same executor it is indistinguishable from that body's context.
//   - The handler queue, ready queue and token pool are earth.Ring deques —
//     the type simrt's queues use — lent to each Run, with the executor's
//     batch and coalescer, from a free list every Runtime shares
//     (store.go): a run starts on rings an earlier run grew.
//   - A runtime message is an envelope, queued by value: a kind (body, sync,
//     put, get-request, get-response), node ids, slot, frame, the one
//     closure the program supplied — or, for a word Get (GetWord), the
//     source, destination and word — and a trace-only issue stamp. One fire*
//     per kind applies it, as simrt reads. Sync, Put, both legs of a Get and
//     its completion sync allocate nothing; a coalesced batch is one closure
//     over a slice of envelopes; a message under a fault plan gains one
//     closure for its receipt checks and one per planned delivery.
//   - Handlers leave the queue a batch per lock acquisition: up to
//     handlerBatch move to an executor-private array, which is run to its
//     end — still before ready threads, before own tokens. Whether the node
//     is down (down) is checked between items; an executor that finds it so
//     keeps the unrun rest until its hand-off moves them, oldest first, to
//     the adopter.
//   - Without a tracer the clock is read once per busy period, not per
//     dispatch: when the executor starts on work after a steal, a park or a
//     pause window, and when it finds its queues empty, parks or exits.
//     Stats.Busy is the sum of those periods: it spans back-to-back bodies
//     and the dequeues between them, which are the node's own overhead, and
//     excludes stealing and waiting. A traced run also reads the clock when
//     each body returns — that body's end and the next one's start — because
//     run events carry Time and Dur.
//   - Time stamps only a trace event reports (when an item or token was
//     queued, when a Put, Get, invoke or placed token was issued) are taken only
//     with a Config.Tracer installed.
package livert

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/manna"
	"earth/internal/sim"
)

// handlerBatch is how many queued handlers an executor takes per lock
// acquisition. A storm token is about eight handlers, so 32 covers the
// backlog a busy node builds while one body runs; beyond that the lock is
// already amortised and a fenced node would only have more to hand back.
const handlerBatch = 32

// idleWait is how long an executor that found nothing to run or steal
// waits for a wake-up before it scans the pools again.
const idleWait = 200 * time.Microsecond

// item is a unit of work executed by a node's executor goroutine.
type item struct {
	body earth.ThreadBody
	// env is set for a handler: its envelope, in the executor's batch.
	env   *envelope
	enq   sim.Time // run-relative time the work became ready (an invoke or placed token in flight: when it was issued); stamped only under a tracer
	cause earth.Cause
}

// ltoken is a pooled load-balanced invocation.
type ltoken struct {
	body  earth.ThreadBody
	enq   sim.Time // deposit time; stamped only under a tracer
	bytes int      // argument size
}

// envKind says what firing an envelope does.
type envKind uint8

const (
	// envBody runs body: a Post handler, a coalesced batch, or a message
	// behind its receipt checks.
	envBody envKind = iota
	// envSync decrements (f, slot) at the frame's home; from signals.
	envSync
	// envPut runs fn, the write, at peer and then signals (f, slot).
	envPut
	// envGetReq runs the read at peer, the owner, and sends the result back
	// to from as an envGetResp (see envelope.load).
	envGetReq
	// envGetResp runs the store at from and then signals (f, slot) on the
	// owner's behalf (see envelope.store).
	envGetResp
)

// envelope is a runtime message, queued by value in the destination's
// handler ring: the clean path allocates nothing per message. It is 64
// bytes and must not grow — one more word showed up as duffcopy and write
// barriers in every queue operation (TestEnvelopeSize).
//
// fn, dst and word are the payload. fn is the one closure the kind carries
// — envBody's body, envPut's write, envGetReq's read, envGetResp's store —
// kept as the pointer word a func value is (pack, unpack): no kind carries
// two, so they share the room. A word Get (earth.WordGetter) carries no
// closure: fn points at the source word, dst at the destination, and the
// response leg carries the word itself.
type envelope struct {
	kind  envKind
	from  int32 // the node that issued the operation (envSync: the signalling node)
	peer  int32 // Put, Get: the owner of the data
	slot  int32
	bytes int32
	f     *earth.Frame // frame to signal; nil for none
	issue sim.Time     // when the Put or Get was issued; stamped only under a tracer
	fn    unsafe.Pointer
	dst   *uint64 // a word Get's destination; nil for every other message
	word  uint64  // the word a word Get's response leg carries
}

// closure is a func type an envelope carries in fn.
type closure interface {
	earth.ThreadBody | func() | func() func()
}

// pack returns the pointer word of func value fn, which is all a func
// value is; unpack turns it back into the func.
func pack[F closure](fn F) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&fn)) }

func unpack[F closure](p unsafe.Pointer) F { return *(*F)(unsafe.Pointer(&p)) }

// load runs a Get's read on the owner: a word Get copies the source word
// into the envelope, a closure Get runs read and keeps the store it returns.
func (e *envelope) load() {
	if e.dst != nil {
		e.word = *(*uint64)(e.fn)
	} else {
		e.fn = pack(unpack[func() func()](e.fn)())
	}
}

// store completes a loaded Get on the requester.
func (e *envelope) store() {
	if e.dst != nil {
		*e.dst = e.word
	} else {
		unpack[func()](e.fn)()
	}
}

type lnode struct {
	id earth.NodeID
	rt *Runtime

	// mu guards the three queues in lane, the node's share of the store
	// lent to the running Run (store.go; nil between Runs); a hand-over
	// records the node's adopter in the fate table under it (see owner).
	mu sync.Mutex
	*lane

	wake chan struct{}
	// rng is the node's random stream (sim.NewRand: math/rand's draws for
	// rngSeed, never seeded), opened by rand() on the first draw (many
	// programs never draw) and continued, never reopened, across Runs.
	// Accessed only by this node's executor.
	rng     *rand.Rand
	rngSeed int64
	// rr is the node's round-robin placement cursor, reset by Run.
	// Accessed only by this node's executor.
	rr int
	// ctx is the one context every body on this executor runs under, live
	// while a body runs and dead between bodies (see exec).
	ctx ctx

	// halted is set by the fence timer when a partition outlives the
	// node's lease, as the crash timer records a crash in the fate table:
	// either way the executor stops at its next dispatch boundary (the
	// running body completes) and parks (down). The rejoin of its last
	// fence clears halted; a crash stays, and so does the fence the table
	// records — ownership of the node's queues moved to the adopter for
	// good, and a rejoined node re-enters steal-only.
	halted atomic.Bool
	// owed lists, oldest first, what timers left the stopped executor to
	// do, each with its unit of outstanding work (owe); fences counts the
	// node's fences not yet ended by a rejoin. Both guarded by mu.
	owed   []duty
	fences int

	// credit is the executor's reserve of outstanding-work units.
	credit credit
	// lane.batch[bnext:bend] holds the handlers the executor took from its
	// queue under one lock acquisition and has not run yet.
	bnext, bend int
	// busy is set while a busy period is open: from is the clock reading
	// that opened it, and under a tracer at is the reading taken when the
	// last body returned, which is the next body's start.
	busy     bool
	from, at sim.Time

	// acct holds the counters only this node's executor touches (Busy,
	// DetectionLatency and what earth.NodeAcct counts for the bodies and
	// handlers it runs) and its share of the sanitizer's frame ledger: the
	// frames it signalled or spawned, whichever node is their home. It needs
	// no lock; Run reads it after wg.Wait, which orders the accesses.
	acct earth.NodeAcct

	// faultStats collects the protocol core's counter deltas for this
	// node. Senders, receivers and timers account from arbitrary
	// goroutines, so it sits behind its own lock; only faulted messages
	// and failovers ever take it.
	statMu     sync.Mutex
	faultStats earth.NodeStats
}

// duty is a hand-off of a down node's queues for cause, placed by the
// schedule at instant at, or a rejoin after a fence of length at.
type duty struct {
	rejoin bool
	cause  earth.Cause
	at     sim.Time
}

// rand returns the node's random stream.
func (n *lnode) rand() *rand.Rand {
	if n.rng == nil {
		n.rng = sim.NewRand(n.rngSeed)
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
	sink        earth.Sink // cfg.Tracer's; the tracer must be thread-safe
	outstanding atomic.Int64
	// done is closed, once per Run, by whoever takes outstanding to zero:
	// finished is the latch. (A sync.Once would still be storing its flag
	// in a timer's goroutine when Run, woken by the close, has returned and
	// the next Run resets it.)
	done     chan struct{}
	finished atomic.Bool
	start    time.Time
	running  atomic.Bool
	// Fault injection (nil inj = clean run). Penalties are real
	// wall-clock delays armed with timers; pause and degradation windows
	// are interpreted in wall nanoseconds since run start.
	inj   *faults.Injector
	plan  *faults.Plan
	retry earth.RetryPolicy
	// store is the storage the running Run borrowed; nil between Runs.
	store *store
	// left notes what the last Run left in its queues when it gave them
	// back (Quiescent reports it); nil for nothing.
	left []string
	// Kill, detection and fence timers are tracked so Run can cancel
	// unfired ones at quiescence and wait out in-flight callbacks before
	// assembling stats.
	crashMu     sync.Mutex
	crashTimers []*time.Timer
	crashWG     sync.WaitGroup
	// armed counts the timers — tracked plan timers and deliverAfter's —
	// that are armed or whose callback has not returned yet.
	armed atomic.Int64
	// hasPart puts every remote message behind the receipt checks; take is
	// the core's table of node fates — who crashed, who was fenced, each
	// node's epoch and who holds its queues, with the crash and fence
	// schedule that arms the plan timers — which picks a down node's
	// adopter (never a peer fencing at the same scheduled instant) and
	// holds the cursor for re-placing its tokens; seen is the
	// idempotent-delivery store.
	hasPart bool
	take    earth.Takeover
	seen    earth.SeenSet
	// coalOn caches cfg.Coalesce.Enabled for the per-operation hot path.
	coalOn bool
}

var _ earth.Runtime = (*Runtime)(nil)

// New builds a live runtime from cfg. The cost model and machine fields
// are accepted for interface compatibility but not charged.
func New(cfg earth.Config) *Runtime {
	cfg = cfg.WithDefaults()
	rt := &Runtime{cfg: cfg, sink: earth.SinkOf(cfg.Tracer), coalOn: cfg.Coalesce.Enabled}
	rt.nodes = make([]*lnode, cfg.Nodes)
	for i := range rt.nodes {
		n := &lnode{
			id:      earth.NodeID(i),
			rt:      rt,
			wake:    make(chan struct{}, 1),
			rngSeed: cfg.Seed*1_000_003 + int64(i),
		}
		n.ctx = ctx{rt: rt, n: n, dead: true}
		n.acct.Node, n.acct.Sink = n.id, rt.sink
		rt.nodes[i] = n
	}
	fs, err := cfg.ResolveFaults()
	if err != nil {
		panic("livert: " + err.Error())
	}
	if fs.Plan != nil {
		rt.plan, rt.retry = fs.Plan, fs.Retry
		rt.take.Init(cfg.Nodes, fs)
		rt.inj = faults.NewInjector(fs.Plan, cfg.Seed)
		rt.hasPart = fs.Plan.HasPartition()
		if fs.Plan.HasCorrupt() {
			for _, n := range rt.nodes {
				n.acct.Checksum = manna.ChecksumBytes
			}
		}
	}
	return rt
}

// P returns the node count.
func (rt *Runtime) P() int { return len(rt.nodes) }

// now returns wall-clock nanoseconds since run start.
func (rt *Runtime) now() sim.Time { return sim.Time(time.Since(rt.start).Nanoseconds()) }

// stamp reads the clock for a time only a trace event reports: zero, and
// no reading, without a tracer.
func (rt *Runtime) stamp() sim.Time {
	if !rt.sink.On() {
		return 0
	}
	return rt.now()
}

// Run executes main on node 0 and blocks until the machine is quiescent.
func (rt *Runtime) Run(main earth.ThreadBody) *earth.Stats {
	if !rt.running.CompareAndSwap(false, true) {
		panic("livert: Run called concurrently")
	}
	defer rt.running.Store(false)
	rt.lend()
	rt.done = make(chan struct{})
	rt.finished.Store(false)
	rt.start = time.Now()
	for _, n := range rt.nodes {
		n.rr = 0
		n.acct.Reset(rt.cfg.Sanitize)
		n.faultStats = earth.NodeStats{}
		n.credit = credit{}
		n.bnext, n.bend, n.fences = 0, 0, 0
		n.busy = false
		n.halted.Store(false)
	}
	if rt.inj != nil {
		rt.inj.Reset()
	}
	var wg sync.WaitGroup
	for _, n := range rt.nodes {
		wg.Add(1)
		go func(n *lnode) {
			defer wg.Done()
			// Label the executor goroutine so CPU/goroutine profiles
			// scraped through the debug server attribute samples per node.
			pprof.SetGoroutineLabels(n.labels)
			n.loop(n.labels)
		}(n)
	}
	rt.take.Reset()
	rt.seen.Reset()
	// Main's unit first: plan timers act only in a run under way.
	rt.enqueue(nil, rt.nodes[0], item{body: main, cause: earth.CauseSpawn})
	rt.armPlanTimers()
	<-rt.done
	wg.Wait()
	rt.reapCrashTimers()
	rt.giveBack()

	st := &earth.Stats{
		Elapsed: sim.Time(time.Since(rt.start).Nanoseconds()),
		Nodes:   make([]earth.NodeStats, len(rt.nodes)),
	}
	for i, n := range rt.nodes {
		st.Nodes[i] = n.acct.Stats
		st.Nodes[i].Add(n.faultStats)
	}
	st.Sanitize = earth.ScanLedgers(rt.nodes, func(n *lnode) *earth.SanLedger { return &n.acct.San }, st.Elapsed, rt.sink)
	return st
}

// Quiescent reports what the last Run left behind, nil for nothing: work
// still counted as outstanding, a unit in an executor's reserve, a handler
// in a private batch, anything in a queue when the Run gave it back, a
// hand-off or rejoin still owed, or a timer still armed or in its callback.
// Tests call it after every Run; it must not be called during one.
func (rt *Runtime) Quiescent() error {
	var left []string
	note := func(what string, n int64) {
		if n != 0 {
			left = append(left, fmt.Sprintf("%s=%d", what, n))
		}
	}
	note("outstanding", rt.outstanding.Load())
	note("timers armed", rt.armed.Load())
	rt.crashMu.Lock()
	note("plan timers tracked", int64(len(rt.crashTimers)))
	rt.crashMu.Unlock()
	for _, n := range rt.nodes {
		where := fmt.Sprintf("node %d ", n.id)
		note(where+"reserve", n.credit.reserve)
		note(where+"batch", int64(n.bend-n.bnext))
		n.mu.Lock()
		note(where+"owed", int64(len(n.owed)))
		n.mu.Unlock()
	}
	left = append(left, rt.left...)
	if left == nil {
		return nil
	}
	return fmt.Errorf("livert: not quiescent after Run: %s", strings.Join(left, ", "))
}

// armCrashTimer schedules fn for run instant at — at once if that has
// passed — on a tracked wall-clock timer, which reapCrashTimers cancels or
// waits out at run end: a crash due after the program's natural finish
// cannot fire into the next run. fn runs only in a run under way, holding
// a unit of outstanding work: it may add units of its own.
func (rt *Runtime) armCrashTimer(at sim.Time, fn func()) {
	rt.crashWG.Add(1)
	rt.armed.Add(1)
	t := time.AfterFunc(time.Duration(at-rt.now()), func() {
		defer rt.crashWG.Done()
		defer rt.armed.Add(-1)
		if rt.join() {
			fn()
			rt.doneOne()
		}
	})
	rt.crashMu.Lock()
	rt.crashTimers = append(rt.crashTimers, t)
	rt.crashMu.Unlock()
}

// reapCrashTimers stops every unfired crash/detection/partition timer
// and waits for in-flight callbacks to drain before Run assembles stats.
// One pass does: a timer is armed only by Run or by a callback holding a
// unit, so none is armed once the run is over.
func (rt *Runtime) reapCrashTimers() {
	rt.crashMu.Lock()
	timers := rt.crashTimers
	rt.crashTimers = nil
	rt.crashMu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			rt.armed.Add(-1) // callback will never run
			rt.crashWG.Done()
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
	for x, at := range rt.take.CrashAt {
		if at >= 0 {
			rt.armCrashTimer(at, func() { rt.killNode(x) })
		}
	}
	for _, f := range rt.take.Fences {
		rt.armCrashTimer(f.At, func() { rt.fenceNode(f) })
	}
	if !rt.hasPart || !rt.sink.On() {
		return
	}
	earth.PartitionMarks(rt.plan, rt.retry.Lease, func(pt faults.Partition, ev earth.Event) {
		rt.armCrashTimer(ev.Time, func() {
			ev.Time = rt.now()
			earth.MarkPartition(rt.sink, pt, len(rt.nodes), ev)
		})
	})
}

// killNode executes a scheduled crash-stop failure: the node's executor
// stops at its next dispatch boundary. One lease later the survivors have
// missed enough heartbeats to declare it dead: it owes its queues' hand-off.
func (rt *Runtime) killNode(x int) {
	n := rt.nodes[x]
	if !rt.take.Crash(n.id) {
		return
	}
	n.account(earth.NodeFault(rt.sink, n.id, rt.now(), earth.CauseCrash, rt.retry.Lease))
	n.poke()
	rt.armCrashTimer(rt.now()+rt.retry.Lease, func() { n.owe(duty{cause: earth.CauseCrash, at: rt.now()}) })
}

// fenceNode executes wrong failure verdict f, one lease into a partition
// window that outlives it: the survivors declare the node dead while the
// node — which has missed the same heartbeats — self-fences. Its epoch is
// bumped (every receiver will reject its stale messages), and it owes the
// hand-off of its queues, placed by the schedule at f.At, as a crash does.
// Ownership never returns: a rejoined node re-enters steal-only.
func (rt *Runtime) fenceNode(f faults.Fence) {
	n := rt.nodes[f.Node]
	if !rt.take.Fence(n.id) {
		return
	}
	n.owe(duty{cause: earth.CausePartition, at: f.At})
	// Armed here, the rejoin follows this callback however late the host ran
	// it; its unit holds the run open until the heal, unless n crashes first.
	rt.add()
	rt.armCrashTimer(f.Heal, func() {
		if !rt.take.Crashed(n.id) {
			n.owe(duty{rejoin: true, at: f.Heal - f.At})
		}
		rt.doneOne()
	})
}

// owe leaves duty d to n's executor, with a unit of outstanding work, and
// wakes it. A fence halts n and counts itself under mu: an earlier fence's
// rejoin, run late, cannot end it. Only a timer callback, holding a unit, owes.
func (n *lnode) owe(d duty) {
	n.rt.add()
	n.mu.Lock()
	if !d.rejoin && d.cause == earth.CausePartition {
		n.fences++
		n.halted.Store(true)
	}
	n.owed = append(n.owed, d)
	n.mu.Unlock()
	n.poke()
}

// join takes one unit of outstanding work unless the run is over: a
// counter at zero never rises again.
func (rt *Runtime) join() bool {
	v := rt.outstanding.Load()
	for v > 0 && !rt.outstanding.CompareAndSwap(v, v+1) {
		v = rt.outstanding.Load()
	}
	return v > 0
}

// failover hands down node n's queues to the adopter the core picks for
// schedule instant at, on n's own executor once it has stopped (retire):
// the adopter declares n dead; n's private batch, handlers and queued
// threads move to it (the frames they reference are treated as
// checkpointed — host memory survives in this embedding); pooled tokens
// are re-placed across the survivors the core picks for instant at. The
// table records the adopter under n's lock, so every later push goes there.
func (rt *Runtime) failover(n *lnode, at sim.Time, cause earth.Cause) {
	// The rings are drained outside n's lock, which a push to the adopter
	// must not be taken under; n's lane gets them back empty, for its store,
	// as nothing is pushed to n again this run.
	n.mu.Lock()
	sn := rt.nodes[rt.take.HandOver(n.id, at)]
	handlers, ready, tokens := n.handlers, n.ready, n.tokens
	n.handlers, n.ready, n.tokens = earth.Ring[envelope]{}, earth.Ring[item]{}, earth.Ring[ltoken]{}
	n.mu.Unlock()
	h := earth.Handover{Down: n.id, At: rt.now(), Cause: cause, Sink: rt.sink}
	sn.account(h.Declare(sn.id, rt.retry.Lease))
	n.acct.Stats.DetectionLatency = rt.retry.Lease
	// Moves preserve the outstanding-work count (nothing is re-added) and
	// each queue's order (oldest first); the batch holds the oldest handlers.
	for ; n.bnext < n.bend; n.bnext++ {
		rt.pushHandler(sn, &n.batch[n.bnext])
	}
	clear(n.batch[:n.bend])
	for handlers.Len() > 0 {
		e := handlers.PopFront()
		rt.pushHandler(sn, &e)
	}
	for ready.Len() > 0 {
		it := ready.PopFront()
		it.enq = h.At
		sn.account(h.Replay(sn.id))
		rt.pushItem(sn, it)
	}
	for tokens.Len() > 0 {
		tk, tn := tokens.PopFront(), rt.nodes[rt.take.Place(at)]
		tn.account(h.Reassign(tn.id, tk.bytes))
		rt.pushToken(tn, tk)
	}
	n.mu.Lock()
	n.handlers, n.ready, n.tokens = handlers, ready, tokens
	n.mu.Unlock()
}

func (rt *Runtime) finish() {
	if rt.finished.CompareAndSwap(false, true) {
		close(rt.done)
	}
}

// add increments the outstanding-work counter.
func (rt *Runtime) add() { rt.outstanding.Add(1) }

// doneOne decrements the counter and finishes the run at zero.
func (rt *Runtime) doneOne() {
	if rt.outstanding.Add(-1) == 0 {
		rt.finish()
	}
}

// unit attaches one unit of outstanding work to an item about to be
// queued: from ex's reserve when a body running on executor ex issues it,
// from the shared counter when a timer or Run itself does (ex == nil).
func (rt *Runtime) unit(ex *lnode) {
	if ex == nil {
		rt.add()
	} else {
		ex.credit.take(&rt.outstanding)
	}
}

// settle returns the executor's reserve to the shared counter and ends the
// run when that was the last outstanding work.
func (n *lnode) settle() {
	if n.credit.settle(&n.rt.outstanding) {
		n.rt.finish()
	}
}

// enqueue adds a ready item on n, issued from executor ex (nil: a timer).
func (rt *Runtime) enqueue(ex, n *lnode, it item) {
	rt.unit(ex)
	it.enq = rt.stamp()
	rt.pushItem(n, it)
}

// enqueueHandler adds runtime message *e on n, likewise. Messages travel
// down the send path by pointer and are copied once, into the ring.
func (rt *Runtime) enqueueHandler(ex, n *lnode, e *envelope) {
	rt.unit(ex)
	rt.pushHandler(n, e)
}

// owner returns, locked, the node that holds n's queues now: it asks the
// table, locks the node named and asks again, which holds while the lock
// does because a hand-over records its adopter under the down node's lock.
func (rt *Runtime) owner(n *lnode) *lnode {
	for {
		n.mu.Lock()
		o := rt.take.Owner(n.id)
		if o == n.id {
			return n
		}
		n.mu.Unlock()
		n = rt.nodes[o]
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

// pushHandler appends a runtime message on n's owner.
func (rt *Runtime) pushHandler(n *lnode, e *envelope) {
	o := rt.owner(n)
	o.handlers.Push(*e)
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

// sendHandler routes runtime message *e, carrying bytes of payload from
// src, to dst, applying the fault plan to remote legs when one is
// installed. ex is the executor the sending body runs on — src's adopter
// when src is down.
func (rt *Runtime) sendHandler(ex *lnode, src earth.NodeID, dst *lnode, bytes int, e *envelope) {
	if dst.id == src {
		rt.enqueueHandler(ex, dst, e)
		return
	}
	// Every send is issued by a body or handler running on an executor: the
	// sender's, counted there. A request carries no payload: 8 bytes on the
	// wire, as in simrt.
	if e.kind == envGetReq {
		ex.acct.Sent(8)
	} else {
		ex.acct.Sent(bytes)
	}
	if rt.inj == nil {
		rt.enqueueHandler(ex, dst, e)
		return
	}
	rt.faultVerdict(ex, src, dst, bytes, *e,
		func(ex *lnode, e envelope) { rt.enqueueHandler(ex, dst, &e) })
}

// sendItem routes a ready item (INVOKE or a placed token) to dst under
// the fault plan. A suppressed duplicate still dispatches as an item
// whose body is a no-op, so livert's thread counters can include
// suppressed copies — acceptable on the wall-clock engine.
func (rt *Runtime) sendItem(ex *lnode, src earth.NodeID, dst *lnode, bytes int, it item) {
	if dst.id == src {
		rt.landItem(ex, src, dst, bytes, it)
		return
	}
	ex.acct.Sent(bytes)
	if rt.inj == nil {
		rt.landItem(ex, src, dst, bytes, it)
		return
	}
	rt.faultVerdict(ex, src, dst, bytes, envelope{kind: envBody, fn: pack(it.body)},
		func(ex *lnode, e envelope) {
			landed := it
			landed.body = unpack[earth.ThreadBody](e.fn)
			rt.landItem(ex, src, dst, bytes, landed)
		})
}

// landItem queues it, bytes of arguments sent by src, on dst. An invoke or
// placed token arriving from another node carries its issue time in enq
// until here.
func (rt *Runtime) landItem(ex *lnode, src earth.NodeID, dst *lnode, bytes int, it item) {
	if dst.id != src {
		dst.acct.Deliver(earth.ThreadDeliver(it.cause), rt.stamp(), it.enq, src, bytes)
	}
	rt.enqueue(ex, dst, it)
}

// faultVerdict sends one remote message under the fault plan: the
// protocol core plans its fate (and traces the sender's side of it), the
// message gains the core's receipt checks, and one wall-clock timer — two
// for a duplicated message — carries it to land.
func (rt *Runtime) faultVerdict(ex *lnode, src earth.NodeID, dst *lnode, bytes int, e envelope, land func(*lnode, envelope)) {
	d := earth.PlanDelivery(rt.inj, rt.retry, rt.plan, src, dst.id, bytes, rt.now(), rt.sink)
	sn := rt.nodes[src]
	if d.FaultsInjected > 0 {
		sn.account(earth.NodeStats{FaultsInjected: d.FaultsInjected, Retries: d.Retries})
	}
	if d.Faulted() || rt.hasPart {
		e = rt.receiptBody(earth.Arrival{From: src, Bytes: bytes, Issue: rt.now(),
			Seq: d.Seq, Drops: d.Drops, Corrupts: d.Corrupts, Dup: d.Dup,
			SendEpoch: rt.take.Epoch(src)}, e)
	}
	rt.deliverAfter(ex, d.Delay, e, land)
	if d.Dup {
		rt.deliverAfter(ex, d.Delay+earth.RetryTimeout, e, land)
	}
}

// receiptBody puts message e behind the protocol core's receipt checks
// (earth.Receive: fencing NACK, idempotent delivery, recovered and corrupt
// accounting), run on whichever executor ends up with the message — the
// adopter, if a hand-over moved it. a carries the sender's epoch as
// stamped at issue; the epoch current at receipt is read here.
func (rt *Runtime) receiptBody(a earth.Arrival, e envelope) envelope {
	return envelope{kind: envBody, fn: pack(earth.ThreadBody(func(c earth.Ctx) {
		a := a
		a.Epoch = rt.take.Epoch(a.From)
		var d earth.NodeStats
		v, _ := earth.Receive(&a, &rt.seen, rt.now(), c.Node(), &d, rt.sink)
		if d != (earth.NodeStats{}) {
			rt.nodes[c.Node()].account(d)
		}
		if v == earth.Fire {
			c.(*ctx).n.fire(&e)
		}
	}))}
}

// deliverAfter lands e after the modelled wall-clock penalty: at once, on
// the sending executor ex, when there is none. The pending delivery stays
// counted as outstanding work, so quiescence detection waits for faulted
// messages still in flight, and as an armed timer until its callback is
// through.
func (rt *Runtime) deliverAfter(ex *lnode, d sim.Time, e envelope, land func(*lnode, envelope)) {
	if d <= 0 {
		land(ex, e)
		return
	}
	rt.add()
	rt.armed.Add(1)
	time.AfterFunc(time.Duration(d), func() {
		land(nil, e)
		rt.armed.Add(-1)
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
//
// Handlers leave the queue a batch per lock acquisition: up to
// handlerBatch of them move to the executor's private batch, which is run
// to its end before the queues are looked at again.
func (n *lnode) next() (item, bool) {
	if n.bnext == n.bend {
		// The batch just run must not keep its closures alive.
		clear(n.batch[:n.bend])
		n.bnext, n.bend = 0, 0
		n.mu.Lock()
		if n.handlers.Len() == 0 {
			var it item
			ok := true
			if n.ready.Len() > 0 {
				it = n.ready.PopFront()
			} else if n.tokens.Len() > 0 {
				tk := n.tokens.PopBack()
				it = item{body: tk.body, enq: tk.enq, cause: earth.CauseToken}
			} else {
				ok = false
			}
			n.mu.Unlock()
			return it, ok
		}
		if n.batch == nil {
			n.batch = make([]envelope, handlerBatch)
		}
		n.bend = n.handlers.PopFrontN(n.batch)
		n.mu.Unlock()
	}
	n.bnext++
	return item{env: &n.batch[n.bnext-1], cause: earth.CauseHandler}, true
}

// steal pops the oldest token from a random victim's pool. A down victim's
// pool is its adopter's to take, once its executor has handed it off.
func (n *lnode) steal() (item, bool) {
	if n.rt.cfg.Balancer != earth.BalanceSteal {
		return item{}, false
	}
	p := len(n.rt.nodes)
	off := n.rand().Intn(p)
	for i := 0; i < p; i++ {
		v := n.rt.nodes[(off+i)%p]
		if v == n || v.down() {
			continue
		}
		v.mu.Lock()
		if v.tokens.Len() > 0 {
			tk := v.tokens.PopFront()
			v.mu.Unlock()
			// Shared-memory steal: a direct pool pop, so the "grant" has no
			// request leg and no round trip.
			it := item{body: tk.body, cause: earth.CauseSteal, enq: n.rt.stamp()}
			n.acct.Deliver(earth.EvStealGrant, it.enq, it.enq, v.id, tk.bytes)
			return it, true
		}
		v.mu.Unlock()
	}
	return item{}, false
}

// loop is the executor: it drains work until the runtime is quiescent. lctx
// carries the goroutine's earth_node pprof label so per-body earth_kind
// labels merge with it instead of replacing the label set.
//
// Before it parks the executor settles its reserve (a down one in retire).
// A run ends in such a settle (or in a timer's doneOne), never while a
// body runs, so the loop does not look at rt.done between bodies.
func (n *lnode) loop(lctx context.Context) {
	rt := n.rt
	for {
		// A crashed or fenced node stops here, between two bodies, and
		// retires and parks while down. A rejoined node resumes steal-only.
		if n.down() {
			if n.retire() {
				select {
				case <-rt.done:
					return
				case <-n.wake:
				}
			}
			continue
		}
		it, ok := n.next()
		if !ok {
			// Stealing is not the node's work: the busy period ends here.
			n.endBusy(rt.now())
			it, ok = n.steal()
		}
		if !ok {
			n.settle()
			if n.idle == nil {
				n.idle = time.NewTimer(idleWait)
			} else {
				n.idle.Reset(idleWait)
			}
			select {
			case <-rt.done:
				return
			case <-n.wake:
				continue
			case <-n.idle.C:
				continue // re-scan pools: a victim may have deposited tokens
			}
		}
		// A paused node holds its work until the window closes. Queues
		// keep filling behind it; nothing executes.
		if rt.plan.HasPause() {
			at := rt.now()
			if pu := rt.plan.PauseUntil(int(n.id), at); pu > at {
				n.endBusy(at)
				n.account(earth.NodeFault(rt.sink, n.id, at, earth.CausePause, pu-at))
				time.Sleep(time.Duration(pu - at))
			}
		}
		if !n.busy {
			n.busy, n.from = true, rt.now()
			n.at = n.from
		}
		n.exec(lctx, it)
		n.credit.give()
	}
}

// endBusy closes the executor's busy period, if one is open, at clock
// reading at.
func (n *lnode) endBusy(at sim.Time) {
	if n.busy {
		n.acct.Stats.Busy += at - n.from
		n.busy = false
	}
}

// retire is what a down executor does before it parks, now that no body of
// its own runs: it performs in order what timers left it — hand-offs
// (failover's one caller), a rejoin only after the hand-off before it —
// closes its busy period and settles. It reports whether it is still down.
func (n *lnode) retire() bool {
	rt := n.rt
	for {
		n.mu.Lock()
		if len(n.owed) == 0 {
			n.mu.Unlock()
			break
		}
		d := n.owed[0]
		n.owed = n.owed[1:]
		if d.rejoin {
			n.fences--
			n.halted.Store(n.fences > 0) // under mu: see owe
		}
		n.mu.Unlock()
		if d.rejoin {
			n.account(earth.Rejoin(rt.sink, n.id, rt.now(), d.at))
		} else {
			rt.failover(n, d.at, d.cause)
		}
		rt.doneOne()
	}
	n.endBusy(rt.now())
	n.settle()
	return n.down()
}

// down reports whether n has crashed or is halted by a fence.
func (n *lnode) down() bool { return n.rt.take.Crashed(n.id) || n.halted.Load() }

// exec runs it under the node's context. The context is live only for the
// body (and its end-of-body flush of the node's coalescer, which leaves the
// coalescer empty for the next one). Only a traced run reads the clock
// here: the event reports the body's start — n.at, the previous body's end
// or the start of the busy period — and its duration.
func (n *lnode) exec(lctx context.Context, it item) {
	rt := n.rt
	c := &n.ctx
	c.dead = false
	if rt.cfg.ProfileLabels {
		kind := "thread"
		if it.env != nil {
			kind = "handler"
		}
		pprof.Do(lctx, pprof.Labels("earth_kind", kind),
			func(context.Context) { n.run(it) })
	} else {
		n.run(it)
	}
	if rt.coalOn {
		n.coal.Drain(c)
	}
	c.dead = true
	var start, end sim.Time
	if rt.sink.On() {
		start, end = n.at, rt.now()
		n.at = end
	}
	// The period clock puts a body's start at the previous one's end, which
	// may precede the item's ready stamp: the wait is clamped at zero.
	n.acct.Ran(start, end, min(it.enq, start), it.cause)
}

// run executes it's body, or fires its envelope, on executor n.
func (n *lnode) run(it item) {
	if it.env != nil {
		n.fire(it.env)
	} else {
		it.body(&n.ctx)
	}
}

// fire applies runtime message e on executor n — the node it was sent to,
// or that node's adopter — one fire* per kind, as simrt reads. It does not
// modify *e: a duplicated message is fired from one shared copy.
func (n *lnode) fire(e *envelope) {
	switch e.kind {
	case envBody:
		unpack[earth.ThreadBody](e.fn)(&n.ctx)
	case envSync:
		n.rt.nodes[e.f.Home].decSlot(n, earth.NodeID(e.from), e.f, int(e.slot))
	case envPut:
		n.firePut(e)
	case envGetReq:
		n.fireGetReq(e)
	case envGetResp:
		n.fireGetResp(e)
	}
}

func (n *lnode) firePut(e *envelope) {
	unpack[func()](e.fn)()
	n.acct.Deliver(earth.EvPutDeliver, n.rt.stamp(), e.issue, earth.NodeID(e.from), int(e.bytes))
	if e.f != nil {
		n.ctx.Sync(e.f, int(e.slot))
	}
}

// fireGetReq reads at the owner and sends the response leg back.
func (n *lnode) fireGetReq(e *envelope) {
	resp := *e
	resp.kind = envGetResp
	resp.load()
	n.rt.sendHandler(n, earth.NodeID(e.peer), n.rt.nodes[e.from], int(e.bytes), &resp)
}

// fireGetResp stores the fetched value at the requester. The response
// semantically carries the sync, so the owner is the signalling node
// (matches simrt's accounting).
func (n *lnode) fireGetResp(e *envelope) {
	rt := n.rt
	e.store()
	n.acct.Deliver(earth.EvGetDeliver, rt.stamp(), e.issue, earth.NodeID(e.peer), int(e.bytes))
	if e.f == nil {
		return
	}
	if home := rt.nodes[e.f.Home]; e.f.Home == earth.NodeID(e.from) {
		home.decSlot(n, earth.NodeID(e.peer), e.f, int(e.slot))
	} else {
		rt.sendHandler(n, earth.NodeID(e.from), home, 8,
			&envelope{kind: envSync, from: e.peer, f: e.f, slot: e.slot})
	}
}

// decSlot must run on the executor that owns the queues of f's home n —
// ex: n itself, or its adopter; from is the signalling node. The signal is
// counted, traced and tracked on ex, as simrt does on the node it runs on:
// once n is fenced its own executor may run new work after it rejoins,
// while ex processes n's signals.
func (n *lnode) decSlot(ex *lnode, from earth.NodeID, f *earth.Frame, slot int) {
	if body := ex.acct.Signal(n.rt.stamp(), from, f, slot); body != nil {
		n.rt.enqueue(ex, n, item{body: body, cause: earth.CauseSync})
	}
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
}

var (
	_ earth.Ctx        = (*ctx)(nil)
	_ earth.WordGetter = (*ctx)(nil)
)

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
	if f.Home != c.n.id && c.rt.take.Owner(f.Home) != c.n.id {
		panic(fmt.Sprintf("livert: Spawn of frame on node %d from node %d", f.Home, c.n.id))
	}
	c.n.acct.San.Track(f)
	c.rt.enqueue(c.n, c.n, item{body: f.ThreadBody(thread), cause: earth.CauseSpawn})
}

func (c *ctx) Sync(f *earth.Frame, slot int) {
	c.check()
	home := c.rt.nodes[f.Home]
	// The node holding the home's frames applies the signal: the home, or
	// its adopter, for the rest of the run — a fenced node's frames stay
	// with the adopter after it rejoins. Anyone else sends it.
	if c.rt.take.Owner(f.Home) == c.n.id {
		home.decSlot(c.n, c.n.id, f, slot)
		return
	}
	c.send(home, 8, &envelope{kind: envSync, from: int32(c.n.id), f: f, slot: int32(slot)})
}

// send ships coalescable message e from the running body to dst: into the
// body's buffer for dst with coalescing on, straight to the wire without.
func (c *ctx) send(dst *lnode, nbytes int, e *envelope) {
	if c.rt.coalOn {
		c.n.coal.Add(c, dst.id, *e, nbytes)
		return
	}
	c.rt.sendHandler(c.n, c.n.id, dst, nbytes, e)
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
	e := envelope{kind: envPut, from: int32(c.n.id), peer: int32(owner), bytes: int32(nbytes),
		fn: pack(write), f: f, slot: int32(slot), issue: rt.stamp()}
	c.n.acct.Issue(earth.EvPutSend, e.issue, owner, nbytes)
	c.send(dst, nbytes, &e)
}

func (c *ctx) Get(owner earth.NodeID, nbytes int, read func() func(), f *earth.Frame, slot int) {
	c.get(owner, nbytes, envelope{fn: pack(read)}, f, slot)
}

// GetWord implements earth.WordGetter: Get of one word, carried in the
// envelope.
func (c *ctx) GetWord(owner earth.NodeID, src, dst *uint64, f *earth.Frame, slot int) {
	if dst == nil {
		// A nil dst would make the envelope read src as a closure.
		panic("livert: GetWord into a nil destination")
	}
	c.get(owner, earth.SizeI64, envelope{fn: unsafe.Pointer(src), dst: dst}, f, slot)
}

// get is the request path of both Get forms; e holds the form's payload
// (see envelope.load).
func (c *ctx) get(owner earth.NodeID, nbytes int, e envelope, f *earth.Frame, slot int) {
	c.check()
	rt := c.rt
	dst := rt.nodes[owner]
	if dst == c.n {
		e.load()
		e.store()
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
	e.kind, e.from, e.peer, e.bytes = envGetReq, int32(c.n.id), int32(owner), int32(nbytes)
	e.f, e.slot, e.issue = f, int32(slot), rt.stamp()
	c.n.acct.Issue(earth.EvGetSend, e.issue, owner, nbytes)
	rt.sendHandler(c.n, c.n.id, dst, nbytes, &e)
}

func (c *ctx) Invoke(nodeID earth.NodeID, argBytes int, body earth.ThreadBody) {
	c.check()
	rt := c.rt
	src := c.n.id
	if rt.coalOn && nodeID != src {
		c.n.coal.FlushTo(c, nodeID)
	}
	it := item{body: body, cause: earth.CauseInvoke, enq: rt.stamp()}
	if nodeID != src {
		c.n.acct.Issue(earth.EvInvokeSend, it.enq, nodeID, argBytes)
	}
	rt.sendItem(c.n, src, rt.nodes[nodeID], argBytes, it)
}

// Post delivers handler on the target's high-priority handler queue.
func (c *ctx) Post(nodeID earth.NodeID, argBytes int, handler earth.ThreadBody) {
	c.check()
	rt := c.rt
	e := envelope{kind: envBody, fn: pack(handler)}
	if nodeID == c.n.id {
		rt.enqueueHandler(c.n, c.n, &e)
		return
	}
	c.n.acct.Issue(earth.EvPostSend, rt.stamp(), nodeID, argBytes)
	c.send(rt.nodes[nodeID], argBytes, &e)
}

func (c *ctx) Token(argBytes int, body earth.ThreadBody) {
	c.check()
	rt := c.rt
	target, placed := earth.PlaceToken(rt.cfg.Balancer, len(rt.nodes), c.n.rand, &c.n.rr)
	if !placed { // BalanceSteal, BalanceNone: pool locally
		tk := ltoken{body: body, enq: rt.stamp(), bytes: argBytes}
		c.n.acct.Issue(earth.EvTokenSpawn, tk.enq, earth.NoPeer, argBytes)
		rt.unit(c.n)
		rt.pushToken(c.n, tk)
		return
	}
	// The balancer placed it on target: it travels as a ready item.
	if rt.coalOn && target != c.n.id {
		c.n.coal.FlushTo(c, target)
	}
	it := item{body: body, cause: earth.CauseToken, enq: rt.stamp()}
	c.n.acct.Issue(earth.EvTokenSpawn, it.enq, target, argBytes)
	rt.sendItem(c.n, c.n.id, rt.nodes[target], argBytes, it)
}
