package groebner

import (
	"fmt"
	"slices"

	"earth/internal/earth"
	"earth/internal/poly"
	"earth/internal/sim"
)

// This file is the EARTH parallelisation of Buchberger's completion. The
// paper's Section 3.2 structure is followed with one structural
// refinement that this reproduction found necessary (see DESIGN.md):
//
//   - Workers (nodes 0..P-2) each run one main application thread that
//     obtains critical pairs, computes the S-polynomial reduction (the
//     real algebra, charged to the compute model) and ships irreducible
//     results to the maintenance node.
//
//   - The reserved node (P-1) is the maintenance/termination node: it
//     owns the solution-set registry, the critical-pair pool, the
//     insertion queue and the global counters — the paper's "central
//     maintenance" plus its "one node reserved for termination
//     detection", combined. Because insertion (the global-irreducibility
//     recheck, registration, broadcast and pair creation) runs on a node
//     whose execution unit is otherwise idle, the solution-set lock of
//     the paper degenerates into this node's serial insert queue and is
//     never held across a worker's long reduction. The paper held the
//     lock from a busy worker instead; with reductions two to four orders
//     of magnitude longer than the runtime overheads, that design
//     serialised our runs end-to-end.
//
//   - Ordered commit: an insert request is deferred while any strictly
//     better pair (by the selection heuristic) is still being reduced.
//     This keeps the parallel completion trajectory close to the
//     sequential one; without it the completion performs substantially
//     more work (ablation: NoOrderedCommit).
//
//   - Pair distribution: by default workers self-schedule from the
//     central pool (globally best available pair). The paper's fully
//     decentralised variant — per-node priority queues with
//     receiver-initiated ring distribution — is available as
//     DistributedQueues, and measurably deviates further from the
//     sequential processing order (ablation).
//
//   - Polynomials are fully replicated: every admitted polynomial is
//     broadcast to all workers with block moves; a worker that receives a
//     pair before the corresponding broadcast fetches the polynomial from
//     the registry with split-phase Gets.
//
// Protocol messages travel as active messages (Ctx.Post — EARTH's
// Synchronization-Unit / polling-watchdog path), so queue services and
// notifications are handled promptly even while long reductions occupy
// the workers' execution units. The reductions themselves run as ordinary
// EARTH threads. A message is a handler and its argument words, as in
// EARTH: a record of the sending node's outbox (see msg), not a closure.

// diagLog, when set, receives insertion-trace lines (test diagnostics).
var diagLog func(string, ...any)

// startLog, when set, sees each spawn of a worker's start frame: the
// worker and the node that spawned it, the worker's adopter when the
// worker is down (test diagnostics; called from every node's context).
var startLog func(w int, on earth.NodeID)

// StepCost converts real reduction work (term operations) into modelled
// i860 compute time.
type StepCost struct {
	// PerTermOp is the modelled cost of one term operation.
	PerTermOp sim.Time
	// PerPair is the fixed overhead per processed pair (S-polynomial
	// formation, bookkeeping).
	PerPair sim.Time
}

// DefaultStepCost is used when a ParallelConfig leaves StepCost zero.
// Calibrate reproduces a specific Table 2 row instead.
func DefaultStepCost() StepCost {
	return StepCost{PerTermOp: 100 * sim.Microsecond, PerPair: 200 * sim.Microsecond}
}

// Calibrate derives the per-term-op cost that makes the modelled
// sequential time of a given trace equal the paper's published sequential
// time for that input.
func Calibrate(tr Trace, paperSeqMS float64) StepCost {
	if tr.TermOps == 0 {
		return DefaultStepCost()
	}
	perPair := 200 * sim.Microsecond
	budget := sim.FromMilliseconds(paperSeqMS) - sim.Time(tr.PairsReduced)*perPair
	per := budget / sim.Time(tr.TermOps)
	if per <= 0 {
		per = sim.Microsecond
	}
	return StepCost{PerTermOp: per, PerPair: perPair}
}

// SeqVirtualTime returns the modelled uniprocessor runtime of a trace
// under a step-cost model — the baseline for speedup figures.
func SeqVirtualTime(tr Trace, sc StepCost) sim.Time {
	return sim.Time(tr.PairsReduced)*sc.PerPair + sim.Time(tr.TermOps)*sc.PerTermOp
}

// ParallelConfig configures a parallel completion run.
type ParallelConfig struct {
	// Opt supplies the criteria applied when pairs are created.
	Opt Options
	// StepCost is the compute model (zero: DefaultStepCost).
	StepCost StepCost
	// DistributedQueues selects the paper's decentralised pair queues
	// (per-node priority queues, receiver-initiated ring distribution)
	// instead of the central self-scheduling pool.
	DistributedQueues bool
	// NoOrderedCommit disables the ordered-commit gate (see file comment).
	NoOrderedCommit bool
}

// ParallelResult is the outcome of a parallel completion.
type ParallelResult struct {
	Basis *Basis
	Stats *earth.Stats
	// PairsProcessed is the total number of reductions performed across
	// workers (varies from run to run with the processing order).
	PairsProcessed int
	// Added counts polynomials admitted beyond the input.
	Added int
	// Deferrals counts insert requests deferred by the ordered-commit
	// gate.
	Deferrals int
	// Rejected counts conflict rounds: the times the commit found a
	// shipped result reduced against fewer basis elements than had been
	// admitted since, and sent it back to its worker with the missing
	// ones to reduce again. A result that then reduces to zero is
	// withdrawn; one that does not is shipped again and may be sent back
	// again, so this counts rounds, not results.
	Rejected int
}

// pairMsgBytes is the wire size of one critical pair (two indices plus a
// packed LCM).
const pairMsgBytes = 24

// insertReq is a shipped irreducible result awaiting commit. prefix is
// the length of the registry prefix the producing worker had replicated
// when it finished the reduction: if the registry has not grown past it,
// the result is already a global normal form and commits without any
// further reduction (optimistic concurrency); otherwise the maintenance
// node ships the missing polynomials back and the worker re-reduces in
// parallel.
type insertReq struct {
	w      int
	pair   Pair
	nf     *poly.Poly
	prefix int
}

// parState is the distributed state of one run. Maintenance-node fields
// are owned by node M = P-1; per-worker fields by their worker. No field
// is accessed from more than one node's execution context.
type parState struct {
	cfg     ParallelConfig
	ring    *poly.Ring
	upd     *Updater // maintenance node only (it caches leads); appendNewPairs, never Update
	workers int
	m       earth.NodeID // maintenance node

	nodes []*parNode

	// Maintenance-node state.
	registry  []*poly.Poly
	created   int
	pool      *pairHeap    // central pool (default mode): the maintenance node's pairs
	fresh     []Pair       // newPairsFor's output, reused by each call
	books     []workerBook // indexed by worker id
	insertQ   []insertReq  // the maintenance node's workspace's, like fresh
	stopped   bool
	added     int
	rejected  int
	deferrals int
	rrNext    int
}

// workerBook is what the maintenance node knows about one worker.
type workerBook struct {
	// waiting: parked on an empty pool (central mode; cleared when
	// dispatchWaiting restarts the worker) or has reported an empty queue
	// (distributed mode; never cleared).
	waiting bool
	// inflight is the pair the worker is reducing, valid while reducing.
	inflight Pair
	reducing bool
	outstand int // shipped-unacked insert requests, as last reported
	// processed is the reported count of reductions (distributed
	// termination only).
	processed int
}

// parNode is one node's state in a run, and the workspace that outlives
// it on its role's free list (see workspaces): between runs it keeps
// its reducer and its slices' capacity and refers to nothing else.
type parNode struct {
	// pairs is the central pool on the maintenance node (default mode), or
	// the worker's own priority queue (distributed mode).
	pairs pairHeap
	cache []*poly.Poly
	leads []poly.Mono // leads[i] is cache[i].LeadMono()
	// stair lists, in index order, the cache entries that form the
	// minimal staircase (redundant reducers dropped, which keeps normal
	// forms close to the sequential trajectory), and staircase holds
	// their polynomials: the basis red divides by. cachePut keeps both.
	stair     []int
	staircase []*poly.Poly
	// red is this worker's reduction workspace (idle on the maintenance
	// node, which reduces nothing). Nodes run on separate host goroutines
	// on livert, so a workspace is never shared between them.
	red *poly.Reducer
	// start is this worker's one-thread start frame for the run. In
	// central mode its thread starts next, the pair the last fetch reply
	// handed over, pending until then; in distributed mode it is step.
	start   *earth.Frame
	next    Pair
	pending bool
	// out holds the messages this node sends, as the executing node: a
	// worker's adopter sends the down worker's from its own (see letter).
	// At rest it holds no record.
	out earth.Outbox[msg]
	// sent holds the pairs this node sent in batches and donations this
	// run, as the executing node; each message carries a view of its own
	// (sentSince).
	sent []Pair
	// fresh and insertQ keep newPairsFor's output and the insert queue's
	// capacity between runs (maintenance node).
	fresh       []Pair
	insertQ     []insertReq
	busy        bool
	stop        bool
	outstanding int // shipped, unacknowledged insert requests
	processed   int
	ringAsked   bool
}

// reset leaves n at rest for the free list: its reducer, its outbox's
// records and the capacity of its slices stay, every pointer and count
// goes.
func (n *parNode) reset() {
	n.red.SetBasis(nil)
	n.out.Reset(restMsg)
	*n = parNode{
		red:       n.red,
		out:       n.out,
		pairs:     pairHeap{ps: emptied(n.pairs.ps)},
		cache:     emptied(n.cache),
		leads:     emptied(n.leads),
		stair:     n.stair[:0],
		staircase: emptied(n.staircase),
		fresh:     emptied(n.fresh),
		insertQ:   emptied(n.insertQ),
		sent:      emptied(n.sent),
	}
}

// sentSince returns the pairs n sent from index start on, capped at their
// end: n only appends past them, so the view stays as sent.
func (n *parNode) sentSince(start int) []Pair { return n.sent[start:len(n.sent):len(n.sent)] }

// msg is the argument of one protocol message: a record of the sending
// node's outbox, filled by the sender and read by the handler, one of the
// *Msg functions below, plain functions that capture nothing. A record
// serves one message of a run, so whatever the engines do to the envelope
// pointing at it, its handler reads what its sender wrote.
type msg struct {
	st *parState
	// w is the worker the message is from or for. A broadcast carries its
	// destination and a ring request its requester here, because the
	// handler may run on an adopter.
	w int
	// at is the worker a ring request asks.
	at int
	// req is a shipped or bounced result; req.pair alone is a fetch
	// reply's pair or an in-flight report's, req.nf alone a broadcast's
	// polynomial.
	req insertReq
	// proc and out are the sender's counts of processed pairs and of
	// outstanding insert requests.
	proc, out int
	// idx and lead are a broadcast polynomial's registry index and
	// leading monomial.
	idx  int
	lead poly.Mono
	// polys are a bounce's registry entries from req.prefix on, with their
	// leading monomials in leads, or the input system (bootstrap).
	polys []*poly.Poly
	leads []poly.Mono
	// pairs is a batch dealt to w or a donation to it: a view of the
	// sender's parNode.sent.
	pairs []Pair
}

// restMsg puts a record's argument at rest: zero. Its slices are views of
// the sending run's storage, which a record at rest must not keep.
var restMsg = func(m *msg) { *m = msg{} }

// handler is a protocol message's handler.
type handler = func(earth.Ctx, *earth.Letter[msg])

// letter returns an unused record of the executing node's outbox. It is
// looked up by c.Node(), never by worker id: a down worker's handlers and
// threads run on its adopter, and an outbox serves one executor.
func (st *parState) letter(c earth.Ctx) *earth.Letter[msg] {
	l := st.nodes[c.Node()].out.Next()
	l.Arg.st = st
	return l
}

// tell posts h to node to with worker w as its only argument.
func (st *parState) tell(c earth.Ctx, to earth.NodeID, bytes, w int, h handler) {
	l := st.letter(c)
	l.Arg.w = w
	l.Post(c, to, bytes, h)
}

// emptied clears s up to its capacity and returns it empty.
func emptied[S ~[]E, E any](s S) S {
	clear(s[:cap(s)])
	return s[:0]
}

// prefixLen returns the length of the contiguous replicated registry
// prefix this worker holds.
func (n *parNode) prefixLen() int {
	for i, p := range n.cache {
		if p == nil {
			return i
		}
	}
	return len(n.cache)
}

// cachePut stores a replicated polynomial and its leading monomial at
// index idx and updates the staircase. A registry entry never changes, so
// a second put of an index (a broadcast and a Get can both deliver it)
// changes nothing. It reports whether the staircase changed.
func (n *parNode) cachePut(idx int, p *poly.Poly, lead poly.Mono) bool {
	for len(n.cache) <= idx {
		n.cache = append(n.cache, nil)
		n.leads = append(n.leads, nil)
	}
	if n.cache[idx] != nil {
		return false
	}
	n.cache[idx], n.leads[idx] = p, lead
	return n.addToStaircase(idx)
}

// addToStaircase admits cache entry i to the staircase unless it is
// redundant, in O(len(stair)). Entry j makes entry i redundant when
// lead(j) divides lead(i) and the two differ or j < i: a strict partial
// order, whose minimal entries the staircase holds. So i is redundant
// exactly when a member makes it so; otherwise it drops the members it
// makes redundant (it can make none redundant when one makes it so) and
// goes in at its index's place.
func (n *parNode) addToStaircase(i int) bool {
	li := n.leads[i]
	k, at := 0, 0
	for r, j := range n.stair {
		lj := n.leads[j]
		if lj.Divides(li) && (j < i || !lj.Equal(li)) {
			return false // nothing was dropped before this member
		}
		if li.Divides(lj) {
			continue // lj is li's multiple, or equal to it with j > i
		}
		n.stair[k], n.staircase[k] = j, n.staircase[r]
		if j < i {
			at = k + 1
		}
		k++
	}
	n.stair = slices.Insert(n.stair[:k], at, i)
	n.staircase = slices.Insert(n.staircase[:k], at, n.cache[i])
	return true
}

// ParallelBuchberger runs the completion on rt. Node P-1 is the reserved
// maintenance/termination node; nodes 0..P-2 are workers. rt must have at
// least 2 nodes.
func ParallelBuchberger(rt earth.Runtime, F []*poly.Poly, cfg ParallelConfig) (*ParallelResult, error) {
	ring, G := prepInput(F)
	if ring == nil {
		return nil, fmt.Errorf("groebner: empty input system")
	}
	if rt.P() < 2 {
		return nil, fmt.Errorf("groebner: need >= 2 nodes (workers + maintenance), got %d", rt.P())
	}
	if cfg.StepCost == (StepCost{}) {
		cfg.StepCost = DefaultStepCost()
	}
	st := &parState{
		cfg:     cfg,
		ring:    ring,
		upd:     NewUpdater(cfg.Opt),
		workers: rt.P() - 1,
		m:       earth.NodeID(rt.P() - 1),
		books:   make([]workerBook, rt.P()-1),
	}
	// The workers take their workspaces in order and give them back in
	// the reverse order, so that a run of the same shape hands each worker
	// the workspace it grew; the maintenance node's comes from its own
	// list.
	st.nodes = make([]*parNode, rt.P())
	st.nodes[st.m] = getWorkspace(maintenance)
	for w := range st.workers {
		st.nodes[w] = getWorkspace(worker)
	}
	for w, n := range st.nodes[:st.workers] {
		start := func(c earth.Ctx) { st.startNext(c, w) }
		if cfg.DistributedQueues {
			start = func(c earth.Ctx) { st.step(c, w) }
		}
		n.start = earth.NewFrame(earth.NodeID(w), 1, 0).SetThread(0, start)
		n.pairs.ord = ring.Order()
	}
	mn := st.nodes[st.m]
	mn.pairs.ord = ring.Order()
	st.pool, st.fresh, st.insertQ = &mn.pairs, mn.fresh, mn.insertQ

	stats := rt.Run(func(c earth.Ctx) { st.driver(c, G) })

	mn.fresh, mn.insertQ = st.fresh, st.insertQ
	res := &ParallelResult{
		Basis:     &Basis{Ring: ring, Polys: st.registry},
		Stats:     stats,
		Added:     st.added,
		Rejected:  st.rejected,
		Deferrals: st.deferrals,
	}
	for _, n := range slices.Backward(st.nodes[:st.workers]) {
		res.PairsProcessed += n.processed
		putWorkspace(worker, n)
	}
	putWorkspace(maintenance, mn)
	return res, nil
}

// driver runs as the program's main thread on node 0; it hands the input
// system to the maintenance node, which replicates it and starts the
// workers.
func (st *parState) driver(c earth.Ctx, G []*poly.Poly) {
	bytes := 0
	for _, g := range G {
		bytes += g.Bytes()
	}
	l := st.letter(c)
	l.Arg.polys = G
	l.Post(c, st.m, bytes, bootstrapMsg)
}

func bootstrapMsg(c earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.bootstrap(c, l.Arg.polys) }

// bootstrap runs on the maintenance node.
func (st *parState) bootstrap(c earth.Ctx, G []*poly.Poly) {
	st.registry = append(st.registry, G...)

	// Initial pairs with the configured criteria.
	var pairs []Pair
	for j := 1; j < len(G); j++ {
		pairs = append(pairs, st.newPairsFor(G[:j+1], j)...)
	}
	st.created = len(pairs)

	// Replicate the input polynomials to every worker. One vectored block
	// move per worker gathers the whole input system into a single wire
	// transfer (one header, one per-message overhead) instead of one
	// BlkMovBytes per polynomial.
	for w := 0; w < st.workers; w++ {
		w := w
		sizes := make([]int, len(G))
		writes := make([]func(), len(G))
		for idx, g := range G {
			lead := st.lead(idx)
			sizes[idx] = g.Bytes()
			writes[idx] = func() { st.nodeCachePut(w, idx, g, lead) }
		}
		earth.BlkMovBytesV(c, earth.NodeID(w), sizes, writes, nil, 0)
	}

	if st.cfg.DistributedQueues {
		st.deal(c, pairs, 0)
		// Workers with no initial pairs (the deal reached only the first
		// len(pairs)) go through the ring.
		for w := len(pairs); w < st.workers; w++ {
			st.tell(c, earth.NodeID(w), 8, w, ringRequestMsg)
		}
		return
	}

	for _, p := range pairs {
		st.pool.push(p)
	}
	for w := range st.workers {
		st.tell(c, earth.NodeID(w), 8, w, fetchWorkMsg)
	}
}

func ringRequestMsg(c earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.ringRequest(c, l.Arg.w) }

// deal hands pairs out round-robin from worker from on, pairs[k] to worker
// (from+k) mod workers, in one batch message per worker dealt any
// (distributed mode).
func (st *parState) deal(c earth.Ctx, pairs []Pair, from int) {
	n := st.nodes[c.Node()]
	for w := range st.workers {
		k := ((w-from)%st.workers + st.workers) % st.workers // w's first pair
		if k >= len(pairs) {
			continue
		}
		start := len(n.sent)
		for ; k < len(pairs); k += st.workers {
			n.sent = append(n.sent, pairs[k])
		}
		l := st.letter(c)
		l.Arg.w, l.Arg.pairs = w, n.sentSince(start)
		l.Post(c, earth.NodeID(w), len(l.Arg.pairs)*pairMsgBytes, pairsMsg)
	}
}

func pairsMsg(c earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.receivePairs(c, l.Arg.w, l.Arg.pairs) }

// lead returns the leading monomial of registry entry idx, unpacked once
// for the maintenance node's pair creation and every worker's cache (which
// only read it). Must run on the maintenance node.
func (st *parState) lead(idx int) poly.Mono { return st.upd.lead(st.registry, idx) }

// nodeCachePut stores a replicated polynomial and its leading monomial in
// worker w's cache and, when its staircase changed, tells w's reducer.
// Must run on w's context.
func (st *parState) nodeCachePut(w, idx int, p *poly.Poly, lead poly.Mono) {
	n := st.nodes[w]
	if n.cachePut(idx, p, lead) {
		n.red.SetBasis(n.staircase)
	}
}

// ---------- central self-scheduling mode ----------

// fetchWork runs on worker w: it asks the maintenance node for the
// globally best available pair.
func (st *parState) fetchWork(c earth.Ctx, w int) {
	n := st.nodes[w]
	if n.stop {
		n.busy = false
		return
	}
	n.busy = true
	st.tell(c, st.m, 16, w, fetchMsg)
}

func fetchWorkMsg(c earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.fetchWork(c, l.Arg.w) }

func fetchMsg(c earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.serveFetch(c, l.Arg.w) }

// serveFetch runs on the maintenance node for worker w's fetch request:
// it hands w the best pair, or parks w on an empty pool.
func (st *parState) serveFetch(c earth.Ctx, w int) {
	if st.pool.len() > 0 {
		p := st.pool.pop()
		st.books[w].inflight, st.books[w].reducing = p, true
		l := st.letter(c)
		l.Arg.w, l.Arg.req.pair = w, p
		l.Post(c, earth.NodeID(w), pairMsgBytes, handOverMsg)
		return
	}
	st.books[w].waiting = true
	st.tell(c, earth.NodeID(w), 8, w, parkMsg)
	st.maybeTerminate(c)
}

func handOverMsg(c earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.handOver(c, l.Arg.w, l.Arg.req.pair) }

func parkMsg(_ earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.nodes[l.Arg.w].busy = false }

// handOver runs on worker w, or on its adopter while w is down: it stores
// the pair the maintenance node handed w and spawns w's start frame. A
// worker has at most one fetch outstanding, so its previous pair has
// started by now; the reused frame relies on that.
func (st *parState) handOver(c earth.Ctx, w int, p Pair) {
	n := st.nodes[w]
	if n.pending {
		panic(fmt.Sprintf("groebner: worker %d handed pair (%d,%d) before its pair (%d,%d) started", w, p.I, p.J, n.next.I, n.next.J))
	}
	n.next, n.pending = p, true
	st.spawnStart(c, w)
}

// spawnStart spawns worker w's start frame from w, or from its adopter
// while w is down (which may spawn w's frames).
func (st *parState) spawnStart(c earth.Ctx, w int) {
	if startLog != nil {
		startLog(w, c.Node())
	}
	c.Spawn(st.nodes[w].start, 0)
}

// startNext is thread 0 of worker w's start frame: it starts the pair the
// last hand-over stored.
func (st *parState) startNext(c earth.Ctx, w int) {
	n := st.nodes[w]
	p := n.next
	n.next, n.pending = Pair{}, false
	st.startPair(c, w, p)
}

// startPair runs as a worker thread: ensure operands are cached, then
// reduce.
func (st *parState) startPair(c earth.Ctx, w int, p Pair) {
	if !st.ensureCached(c, w, p) {
		return // continuation re-enters processPair
	}
	st.processPair(c, w, p)
}

// ensureCached fetches missing operands from the registry with
// split-phase Gets; returns true when everything is already local.
func (st *parState) ensureCached(c earth.Ctx, w int, p Pair) bool {
	n := st.nodes[w]
	var missing []int
	for _, idx := range []int{p.I, p.J} {
		if idx >= len(n.cache) || n.cache[idx] == nil {
			missing = append(missing, idx)
		}
	}
	if len(missing) == 0 {
		return true
	}
	f := earth.NewFrame(earth.NodeID(w), 1, 1)
	f.InitSync(0, len(missing), 0, 0)
	f.SetThread(0, func(c earth.Ctx) { st.processPair(c, w, p) })
	for _, idx := range missing {
		// Pairs are created only after registration, so the entry exists.
		c.Get(st.m, 512, func() func() {
			g, lead := st.registry[idx], st.lead(idx)
			return func() { st.nodeCachePut(w, idx, g, lead) }
		}, f, 0)
	}
	return false
}

// processPair performs one reduction (the real algebra) on worker w and
// charges the compute model for the work actually done.
func (st *parState) processPair(c earth.Ctx, w int, p Pair) {
	n := st.nodes[w]
	nf, rst := n.red.ReduceMonic(n.cache[p.I], n.cache[p.J])
	c.Compute(st.cfg.StepCost.PerPair + sim.Time(rst.TermOps)*st.cfg.StepCost.PerTermOp)
	n.processed++

	if !nf.IsZero() {
		n.outstanding++
		st.shipResult(c, w, p, nf)
	} else {
		l := st.letter(c)
		l.Arg.w, l.Arg.proc = w, n.processed
		l.Post(c, st.m, pairMsgBytes, zeroMsg)
	}
	st.continueWorker(c, w)
}

// zeroMsg reports a pair that reduced to zero.
func zeroMsg(c earth.Ctx, l *earth.Letter[msg]) {
	st, m := l.Arg.st, &l.Arg
	st.books[m.w].reducing = false
	st.books[m.w].processed = m.proc
	st.tryInsert(c) // the gate may have been waiting on this pair
	if !st.cfg.DistributedQueues {
		// A distributed worker is judged when it reports idle.
		st.maybeTerminate(c)
	}
}

// shipResult sends an irreducible result to the maintenance node. The
// reporting pair completion travels with it.
func (st *parState) shipResult(c earth.Ctx, w int, p Pair, nf *poly.Poly) {
	n := st.nodes[w]
	l := st.letter(c)
	l.Arg.req = insertReq{w: w, pair: p, nf: nf, prefix: n.prefixLen()}
	l.Arg.proc = n.processed
	l.Post(c, st.m, nf.Bytes()+pairMsgBytes, shipMsg)
}

func shipMsg(c earth.Ctx, l *earth.Letter[msg]) {
	st, m := l.Arg.st, &l.Arg
	st.insertQ = append(st.insertQ, m.req)
	// Also after a rereduce, when the worker may already hold its next
	// pair.
	st.books[m.req.w].reducing = false
	st.books[m.req.w].processed = m.proc
	st.tryInsert(c)
}

// continueWorker resumes worker w's main loop in the configured mode.
func (st *parState) continueWorker(c earth.Ctx, w int) {
	if st.cfg.DistributedQueues {
		st.spawnStart(c, w)
		return
	}
	st.fetchWork(c, w)
}

// tryInsert runs on the maintenance node: process queued insert requests
// (best first), honouring the ordered-commit gate. A request whose
// registry prefix is current commits immediately (its result is already a
// global normal form); a stale request is bounced back to its worker with
// the missing polynomials for a parallel re-reduction.
func (st *parState) tryInsert(c earth.Ctx) {
	for len(st.insertQ) > 0 && !st.stopped {
		best := 0
		for i := 1; i < len(st.insertQ); i++ {
			if st.insertQ[i].pair.Less(st.insertQ[best].pair, st.ring.Order()) {
				best = i
			}
		}
		req := st.insertQ[best]
		if !st.cfg.NoOrderedCommit {
			blocked := false
			for ow, b := range st.books {
				if ow != req.w && b.reducing && b.inflight.Less(req.pair, st.ring.Order()) {
					blocked = true
					break
				}
			}
			if blocked {
				st.deferrals++
				return // re-evaluated when that pair completes
			}
		}
		st.insertQ[best] = st.insertQ[len(st.insertQ)-1]
		st.insertQ = st.insertQ[:len(st.insertQ)-1]

		if req.prefix >= len(st.registry) {
			// Optimistic commit: the worker reduced against the complete
			// solution set; no recheck is needed.
			idx := len(st.registry)
			st.registry = append(st.registry, req.nf)
			st.added++
			if diagLog != nil {
				diagLog("t=%v w=%d insert idx=%d lead=%v terms=%d\n", c.Now(), req.w, idx, req.nf.LeadMono(), req.nf.NumTerms())
			}
			st.finishInsert(c, req.w, idx, req.nf)
			continue
		}
		// Conflict: ship the polynomials admitted since the worker's
		// snapshot and let it re-reduce in parallel.
		st.rejected++ // counted as a conflict round
		// The entries go as views of the registry and of the Updater's
		// lead cache: an entry below end is written once, so the views
		// stay as sent while the maintenance node appends past them.
		end, bytes := len(st.registry), 0
		for k, g := range st.registry[req.prefix:end] {
			bytes += g.Bytes()
			st.lead(req.prefix + k)
		}
		l := st.letter(c)
		l.Arg.req = req
		l.Arg.polys, l.Arg.leads = st.registry[req.prefix:end:end], st.upd.leads[req.prefix:end:end]
		l.Post(c, earth.NodeID(req.w), bytes+pairMsgBytes, bounceMsg)
	}
}

// bounceMsg runs on the request's worker, or its adopter: it caches the
// polynomials and spawns the re-reduction on its own record.
func bounceMsg(c earth.Ctx, l *earth.Letter[msg]) {
	m := &l.Arg
	for k, g := range m.polys {
		m.st.nodeCachePut(m.req.w, m.req.prefix+k, g, m.leads[k])
	}
	l.Spawn(c, rereduceMsg)
}

func rereduceMsg(c earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.rereduce(c, l.Arg.req) }

// rereduce runs as a worker thread after a commit conflict: reduce the
// result against the refreshed cache; a surviving result is re-shipped,
// a dead one is withdrawn.
func (st *parState) rereduce(c earth.Ctx, req insertReq) {
	n := st.nodes[req.w]
	nf, rst := n.red.ReduceMonic(req.nf, nil)
	c.Compute(sim.Time(rst.TermOps) * st.cfg.StepCost.PerTermOp)
	if nf.IsZero() {
		n.outstanding--
		l := st.letter(c)
		l.Arg.w, l.Arg.out = req.w, n.outstanding
		l.Post(c, st.m, 16, outstandMsg)
		return
	}
	st.shipResult(c, req.w, req.pair, nf)
}

// finishInsert completes an insert (or rejection): acknowledge the origin
// worker, broadcast the polynomial, create and distribute the new pairs.
func (st *parState) finishInsert(c earth.Ctx, w int, idx int, nf *poly.Poly) {
	// Acknowledge the shipping worker.
	st.tell(c, earth.NodeID(w), 8, w, ackMsg)

	if nf != nil {
		// Broadcast (read caching of the replicated solution set).
		lead := st.lead(idx)
		for o := range st.workers {
			l := st.letter(c)
			l.Arg.w, l.Arg.idx, l.Arg.req.nf, l.Arg.lead = o, idx, nf, lead
			l.Post(c, earth.NodeID(o), nf.Bytes(), broadcastMsg)
		}
		// New pairs.
		pairs := st.newPairsFor(st.registry, idx)
		st.created += len(pairs)
		if st.cfg.DistributedQueues {
			st.deal(c, pairs, st.rrNext)
			st.rrNext++
		} else {
			for _, p := range pairs {
				st.pool.push(p)
			}
			st.dispatchWaiting(c)
		}
	}
	st.maybeTerminate(c)
}

// ackMsg runs on the acknowledged worker, or its adopter, and reports its
// outstanding count back.
func ackMsg(c earth.Ctx, l *earth.Letter[msg]) {
	st, w := l.Arg.st, l.Arg.w
	n := st.nodes[w]
	n.outstanding--
	r := st.letter(c)
	r.Arg.w, r.Arg.out = w, n.outstanding
	r.Post(c, st.m, 8, outstandMsg)
}

// outstandMsg books a worker's outstanding count: an acknowledgement's
// reply, or a withdrawal after a re-reduction to zero.
func outstandMsg(c earth.Ctx, l *earth.Letter[msg]) {
	st := l.Arg.st
	st.books[l.Arg.w].outstand = l.Arg.out
	st.maybeTerminate(c)
}

func broadcastMsg(c earth.Ctx, l *earth.Letter[msg]) {
	m := &l.Arg
	m.st.nodeCachePut(m.w, m.idx, m.req.nf, m.lead)
	m.st.onBroadcast(c, m.w)
}

// dispatchWaiting restarts parked workers, in id order, while pairs are
// available.
func (st *parState) dispatchWaiting(c earth.Ctx) {
	for w := range st.books {
		if st.pool.len() == 0 {
			return
		}
		if !st.books[w].waiting {
			continue
		}
		st.books[w].waiting = false
		st.tell(c, earth.NodeID(w), 8, w, fetchWorkMsg)
	}
}

// newPairsFor builds the critical pairs of basis[idx] against all earlier
// entries that survive the configured criteria, numbering them by their
// rank in (idx, partner) order — idx(idx-1)/2 + partner, one number per
// pair of a run — where the sequential Update draws from a running
// counter. The pairs are valid until the next call, which reuses the
// slice.
func (st *parState) newPairsFor(basis []*poly.Poly, idx int) []Pair {
	pairs, _ := st.upd.appendNewPairs(st.fresh[:0], basis, idx)
	for i := range pairs {
		pairs[i].Seq = idx*(idx-1)/2 + pairs[i].I
	}
	st.fresh = pairs
	return pairs
}

// maybeTerminate runs on the maintenance node after every state change —
// termination detection is event-driven, as all global state lives there
// — and stops the workers once the completion has finished.
func (st *parState) maybeTerminate(c earth.Ctx) {
	if st.stopped || !st.finished() {
		return
	}
	st.stopped = true
	for w := range st.workers {
		st.tell(c, earth.NodeID(w), 8, w, stopMsg)
	}
}

func stopMsg(_ earth.Ctx, l *earth.Letter[msg]) { l.Arg.st.nodes[l.Arg.w].stop = true }

// finished is the termination rule (DESIGN.md §4a.3), a predicate of the
// maintenance node's books alone: no insert is queued, every worker is
// parked with no pair in flight and no request outstanding, and no pair
// is left — the central pool is empty or, in distributed mode, where
// queue contents are remote, every created pair has been processed. A
// request bounced back for re-reduction is in no book (ROADMAP 7(b)).
func (st *parState) finished() bool {
	if len(st.insertQ) > 0 {
		return false
	}
	total := 0
	for _, b := range st.books {
		if !b.waiting || b.reducing || b.outstand > 0 {
			return false
		}
		total += b.processed
	}
	if st.cfg.DistributedQueues {
		return total == st.created
	}
	return st.pool.len() == 0
}

// ---------- distributed-queues mode (ablation) ----------

// receivePairs runs on worker w: merge pairs into the local queue and
// (re)start the main loop.
func (st *parState) receivePairs(c earth.Ctx, w int, pairs []Pair) {
	n := st.nodes[w]
	for _, p := range pairs {
		n.pairs.push(p)
	}
	n.ringAsked = false
	if !n.busy && !n.stop {
		n.busy = true
		st.spawnStart(c, w)
	}
}

// step is thread 0 of worker w's start frame in distributed mode, one
// iteration of its main loop: start the best pair of the local queue, or
// report idle.
func (st *parState) step(c earth.Ctx, w int) {
	n := st.nodes[w]
	if n.stop {
		n.busy = false
		return
	}
	if n.pairs.len() == 0 {
		n.busy = false
		st.reportIdle(c, w)
		return
	}
	p := n.pairs.pop()
	l := st.letter(c)
	l.Arg.w, l.Arg.req.pair = w, p
	l.Post(c, st.m, pairMsgBytes, inflightMsg)
	st.startPair(c, w, p)
}

func inflightMsg(_ earth.Ctx, l *earth.Letter[msg]) {
	b := &l.Arg.st.books[l.Arg.w]
	b.inflight, b.reducing = l.Arg.req.pair, true
}

// reportIdle runs on worker w with an empty queue: it asks the ring for
// pairs and tells the maintenance node w ran dry (distributed termination
// bookkeeping).
func (st *parState) reportIdle(c earth.Ctx, w int) {
	st.ringRequest(c, w)
	n := st.nodes[w]
	l := st.letter(c)
	l.Arg.w, l.Arg.proc, l.Arg.out = w, n.processed, n.outstanding
	l.Post(c, st.m, 16, idleMsg)
}

func idleMsg(c earth.Ctx, l *earth.Letter[msg]) {
	st, m := l.Arg.st, &l.Arg
	st.books[m.w].processed = m.proc
	st.books[m.w].outstand = m.out
	st.books[m.w].waiting = true
	st.maybeTerminate(c)
}

// onBroadcast runs on worker o when a new polynomial arrives: an idle
// worker in distributed mode uses it to retry its ring request, and to
// refresh its idle report (the queue may still be empty, but processed
// counts move).
func (st *parState) onBroadcast(c earth.Ctx, o int) {
	if !st.cfg.DistributedQueues {
		return
	}
	n := st.nodes[o]
	if n.busy || n.stop {
		return
	}
	if n.pairs.len() > 0 {
		n.busy = true
		st.spawnStart(c, o)
		return
	}
	n.ringAsked = false
	st.reportIdle(c, o)
}

// ringRequest implements the receiver-initiated ring distribution: an
// idle worker asks its successor for pairs; the request travels the ring
// until a donor is found or it returns home.
func (st *parState) ringRequest(c earth.Ctx, w int) {
	n := st.nodes[w]
	if n.ringAsked || st.workers < 2 {
		return
	}
	n.ringAsked = true
	st.ringHop(c, w, (w+1)%st.workers)
}

func (st *parState) ringHop(c earth.Ctx, requester, at int) {
	if at == requester {
		return // no work anywhere right now
	}
	l := st.letter(c)
	l.Arg.w, l.Arg.at = requester, at
	l.Post(c, earth.NodeID(at), 16, ringHopMsg)
}

// ringHopMsg runs on the asked worker, or its adopter: it donates pairs to
// the requester or passes the request on.
func ringHopMsg(c earth.Ctx, l *earth.Letter[msg]) {
	st, requester, at := l.Arg.st, l.Arg.w, l.Arg.at
	v := st.nodes[at]
	if v.pairs.len() > 1 {
		// Donate the best half: the requester starts on it immediately,
		// keeping global order close to the heuristic.
		n := st.nodes[c.Node()]
		start := len(n.sent)
		for range v.pairs.len() / 2 {
			n.sent = append(n.sent, v.pairs.pop())
		}
		d := st.letter(c)
		d.Arg.w, d.Arg.pairs = requester, n.sentSince(start)
		d.Post(c, earth.NodeID(requester), len(d.Arg.pairs)*pairMsgBytes, pairsMsg)
		return
	}
	st.ringHop(c, requester, (at+1)%st.workers)
}

// MeanPolyBytes reports the mean compacted size of a basis's polynomials
// (Table 2's "mean size of polynomial").
func MeanPolyBytes(polys []*poly.Poly) int {
	if len(polys) == 0 {
		return 0
	}
	sum := 0
	for _, p := range polys {
		sum += p.Bytes()
	}
	return sum / len(polys)
}
