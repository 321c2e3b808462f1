package neural

import (
	"fmt"
	"sync"

	"earth/internal/earth"
	"earth/internal/sim"
)

// Unit parallelism on EARTH, following the paper's Section 3.3:
//
//   - each layer is sliced across the nodes; a node owns a contiguous
//     range of hidden and output units and keeps their weight rows (the
//     long-term data "maintained per node, exclusively used by the nodes
//     and surviving the individual layer activations");
//
//   - communication is centralised: all nodes receive the previous
//     layer's activations from the central node (node 0) and send their
//     results back to it, which also synchronises the layer computations;
//
//   - the communication is organised as a binary tree (broadcast, gather
//     and combining reduce), the optimisation that raised the 80-unit
//     speedup from 8 to 12 in the paper; the earlier sequential
//     point-to-point organisation is kept as an ablation (Tree=false);
//
//   - in the training configuration the backward pass adds the exchange
//     of error values from the output to the hidden layer: each node
//     computes the partial back-propagated sums for all hidden units over
//     its own output units, the partials are combined by a summing tree
//     reduce, and the result is broadcast for the hidden-layer delta and
//     weight update ("the forward and the backward computation at the
//     output units can be combined").
//
// The per-unit compute cost is calibrated to Table 3: 32/67/222 us per
// unit for 80/200/720 units fits cost(u) = 8.67us + 0.29167us * u almost
// exactly (predicting 218.7us at 720).

// UnitCostFor returns the modelled forward cost of one unit in a net with
// u units per layer.
func UnitCostFor(u int) sim.Time {
	return sim.FromMicroseconds(8.67 + 0.29167*float64(u))
}

// ParallelConfig configures a unit-parallel run.
type ParallelConfig struct {
	// Train selects forward+backward with online weight updates
	// (Figure 8); false runs the forward pass only (Figure 7).
	Train bool
	// Tree selects tree-organised communication; false is the sequential
	// central exchange (the paper's earlier version).
	Tree bool
}

// learningRate is the gradient-descent step of every training run, unit-
// or sample-parallel.
const learningRate float32 = 0.1

// ParallelResult carries the run's outcome.
type ParallelResult struct {
	Stats *earth.Stats
	// Outputs holds the output activations of every sample.
	Outputs [][]float32
	// Loss is the summed pre-update loss over samples (training runs).
	Loss float64
}

// nnode is one node's workspace: the buffers the node owns during a run.
// Between runs it waits on the workspaces free list with the buffers'
// capacity kept, so the next run re-slices them instead of allocating
// (see getWorkspaces).
type nnode struct {
	lx, lt, lh, lb []float32 // local copies of broadcast data
	// pack[ph] is the packed gather buffer of phase ph's layer (tree
	// order): the node's own units, then each child's subtree block.
	pack [2][]float32
	got  [2]int // fill counters of pack (tree mode)
	// out is the node's outbox: what its last broadcast carried, read by
	// the recipients on arrival (see sendDown).
	out     []float32
	partial []float32 // partial back-propagated sums
	gotB    int       // reduce contributions received (tree mode)
	// childB holds the children's partial buffers in arrival order until
	// the node's own sums are in partial (tree mode); see trySendBack.
	childB [][]float32
	// src[ph] is the net whose rows of phase ph's layer the node reads:
	// the run's start net until the node first writes them, the trained
	// net from then on (see ParallelTrainFrom).
	src [2]*Net
}

// workspaces holds node workspaces between runs, so that a run starts on
// buffers already grown (a sweep makes thousands of runs). It is a plain
// free list, not a sync.Pool: the collector empties a pool every second
// cycle, and a sweep collects several times a second. Uncapped, the list
// never holds more workspaces than were once in use at the same time.
// Each run takes its own, one per node, so no two goroutines share one;
// putWorkspaces clears every pointer, so a listed workspace pins no net,
// sample or other node's buffer.
var workspaces struct {
	mu   sync.Mutex
	free []*nnode
}

// getWorkspaces takes p workspaces from the free list, making those it
// lacks, and fits node k's to a run of net's shape on cm reading start.
func getWorkspaces(p int, cm *comm, start, net *Net) []*nnode {
	nodes := make([]*nnode, p)
	workspaces.mu.Lock()
	took := copy(nodes, workspaces.free[max(0, len(workspaces.free)-p):])
	clear(workspaces.free[len(workspaces.free)-took:])
	workspaces.free = workspaces.free[:len(workspaces.free)-took]
	workspaces.mu.Unlock()
	for k, n := range nodes {
		if n == nil {
			n = &nnode{}
			nodes[k] = n
		}
		n.lx, n.lt = fit(n.lx, net.NIn), fit(n.lt, net.NOut)
		n.lh, n.lb = fit(n.lh, net.NHid), fit(n.lb, net.NHid)
		for ph := range n.pack {
			n.pack[ph] = fit(n.pack[ph], cm.sub[ph][k])
		}
		n.partial = fit(n.partial, net.NHid)
		n.src = [2]*Net{start, start}
	}
	return nodes
}

// fit returns b re-sliced to n cleared values, or a new slice when b's
// capacity is short.
func fit(b []float32, n int) []float32 {
	if cap(b) < n {
		return make([]float32, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// putWorkspaces leaves nodes at rest and returns them to the free list.
func putWorkspaces(nodes []*nnode) {
	for _, n := range nodes {
		n.got, n.gotB, n.src = [2]int{}, 0, [2]*Net{}
		clear(n.childB[:cap(n.childB)])
		n.childB = n.childB[:0]
	}
	workspaces.mu.Lock()
	workspaces.free = append(workspaces.free, nodes...)
	workspaces.mu.Unlock()
}

// bufSet names the broadcast buffers (lx, lt, lh, lb) one phase's
// broadcast carries; they are what is copied and what the modelled
// message is sized from.
type bufSet uint8

const (
	bufX bufSet = 1 << iota
	bufT
	bufH
	bufB
)

// comm holds the static tree layout: node k's children are 2k+1, 2k+2.
// It is a pure function of the machine size and the layer widths, built
// once per shape (commFor) and only read.
type comm struct {
	p     int
	ids   []int    // 1 … p-1: node k's children are ids[2k : 2k+2], clipped
	own   [2][]int // per phase's layer: units owned per node
	start [2][]int // first unit owned per node
	sub   [2][]int // subtree unit totals
	perm  [2][]int // packed position -> unit index at the root
}

func newComm(p, nHid, nOut int) *comm {
	cm := &comm{p: p, ids: make([]int, p-1)}
	for ph, total := range [2]int{nHid, nOut} {
		own, start, sub := make([]int, p), make([]int, p), make([]int, p)
		for k := 0; k < p; k++ {
			lo := k * total / p
			hi := (k + 1) * total / p
			own[k] = hi - lo
			start[k] = lo
		}
		var sum func(k int) int
		sum = func(k int) int {
			if k >= p {
				return 0
			}
			sub[k] = own[k] + sum(2*k+1) + sum(2*k+2)
			return sub[k]
		}
		sum(0)
		cm.own[ph], cm.start[ph], cm.sub[ph] = own, start, sub
		cm.perm[ph] = cm.layout(own, start)
	}
	for i := range cm.ids {
		cm.ids[i] = i + 1
	}
	return cm
}

// layout maps the root's packed gather layout to natural unit indices.
func (cm *comm) layout(own, start []int) []int {
	var out []int
	var walk func(k int)
	walk = func(k int) {
		if k >= cm.p {
			return
		}
		for u := 0; u < own[k]; u++ {
			out = append(out, start[k]+u)
		}
		walk(2*k + 1)
		walk(2*k + 2)
	}
	walk(0)
	return out
}

// comms memoises newComm per shape, for the life of the process: a
// process runs few shapes (a sweep: its widths times its machine sizes).
var comms struct {
	mu sync.Mutex
	m  map[[3]int]*comm
}

// commFor returns the layout of p nodes over layers of nHid and nOut
// units, built on first use and shared, read-only, from then on.
func commFor(p, nHid, nOut int) *comm {
	key := [3]int{p, nHid, nOut}
	comms.mu.Lock()
	defer comms.mu.Unlock()
	cm := comms.m[key]
	if cm == nil {
		if comms.m == nil {
			comms.m = map[[3]int]*comm{}
		}
		cm = newComm(p, nHid, nOut)
		comms.m[key] = cm
	}
	return cm
}

// children returns k's tree children, a window on ids the caller must not
// write.
func (cm *comm) children(k int) []int {
	return cm.ids[min(2*k, len(cm.ids)):min(2*k+2, len(cm.ids))]
}

// parent returns k's tree parent.
func (cm *comm) parent(k int) int { return (k - 1) / 2 }

// pstate is the whole distributed state of one run.
//
// No message allocates a copy of its data. A broadcast's data is copied
// once into the sending node's outbox when it sends, and each recipient
// copies it from there on arrival; a gather or tree back-reduce message
// names its sender, whose pack or partial buffer the recipient copies
// (partial sums: adds) on arrival. Each of those buffers is rewritten only
// in a later phase — a node's outbox at its next broadcast, its pack
// buffer of a phase and its partial sums in the next sample — and the
// root starts a later phase only after every message of the earlier one
// has been received: every recipient of a broadcast reports back, through
// a gather, the back reduce or its hidden update, before the root moves
// on. So a recipient reads what the sender held when it sent, as a copy
// made at send time would, on either engine and under any delivery delay,
// and the chain of messages orders each read between the writes around it.
// The sequential back reduce's Puts are no exception: each signals
// backFrame once its sums are added, and the sample goes on only when all
// have.
type pstate struct {
	cfg  ParallelConfig
	net  *Net
	cm   *comm
	cost struct {
		fwdUnit  sim.Time // per unit, forward phases
		backUnit sim.Time // per unit, each of the three backward phases
	}

	// Central bookkeeping (owned by node 0). The central input, target,
	// hidden activations and summed partials are node 0's lx, lt, lh and
	// lb, which its broadcasts send; y is the current sample's row of
	// outputs.
	sample             int
	samplesX, samplesT [][]float32
	y                  []float32
	outRows            []float32 // every sample's outputs, a row each
	back               []float32 // sequential training: the Puts' sum
	outputs            [][]float32
	loss               float64
	// Sequential communication: the per-phase gather frames and, when
	// training, the back reduce's, built on node 0 before the run; backPuts
	// counts the back reduce's Puts applied in the current sample.
	seqFrames [2]*earth.Frame
	backFrame *earth.Frame
	backPuts  int

	joined         int
	updatesPending int

	nodes []*nnode
}

// ParallelRun processes samples through the network on rt with unit
// parallelism. The inputs (and targets when training) are given per
// sample. Weight rows are updated in place when training, which a net
// from Tabulate does not allow.
func ParallelRun(rt earth.Runtime, net *Net, xs, ts [][]float32, cfg ParallelConfig) *ParallelResult {
	if cfg.Train && net.fwd[phaseHidden] != nil {
		panic("neural: a tabulated net cannot train: it shares its weights with its table")
	}
	return parallelRun(rt, net, net, xs, ts, cfg)
}

// ParallelTrainFrom trains scratch as ParallelRun with cfg.Train would
// after scratch.CopyFrom(start): the result and scratch's weights
// afterwards are that run's, bit for bit, with the same messages and
// Compute charges. What scratch held before is never read, and start is
// never written, so start may be a net from Tabulate that concurrent runs
// share. Nothing copies start up front. Until a node first writes its rows
// of a layer, it reads them from start: its forward units come from
// start's table when that holds the layer's input and are computed from
// start's rows otherwise, and its first update reads start's rows and
// writes scratch's. Rows no node wrote (a run without samples) are copied
// from start at the end. scratch must be a plain net of start's shape that
// shares no weights with it.
func ParallelTrainFrom(rt earth.Runtime, start, scratch *Net, xs, ts [][]float32, cfg ParallelConfig) *ParallelResult {
	if !cfg.Train {
		panic("neural: ParallelTrainFrom trains: set cfg.Train")
	}
	if scratch.fwd[phaseHidden] != nil || &scratch.W1[0][0] == &start.W1[0][0] {
		panic("neural: ParallelTrainFrom needs a plain scratch net that shares no weights with its start")
	}
	if scratch.NIn != start.NIn || scratch.NHid != start.NHid || scratch.NOut != start.NOut {
		panic(fmt.Sprintf("neural: ParallelTrainFrom %d/%d/%d into %d/%d/%d",
			start.NIn, start.NHid, start.NOut, scratch.NIn, scratch.NHid, scratch.NOut))
	}
	return parallelRun(rt, start, scratch, xs, ts, cfg)
}

// checkSamples panics unless every input has net.NIn values and, when
// training, every sample a target of net.NOut values: copying a short one
// into the run's buffers would keep the previous sample's tail.
func checkSamples(net *Net, xs, ts [][]float32, train bool) {
	if train && len(ts) < len(xs) {
		panic("neural: training needs a target per sample")
	}
	for s, x := range xs {
		if len(x) != net.NIn {
			panic(fmt.Sprintf("neural: sample %d: input size %d, want %d", s, len(x), net.NIn))
		}
		if train && len(ts[s]) != net.NOut {
			panic(fmt.Sprintf("neural: sample %d: target size %d, want %d", s, len(ts[s]), net.NOut))
		}
	}
}

// parallelRun runs the samples on rt, training net (when cfg.Train) from
// start's weights; start is net or, from ParallelTrainFrom, a net of the
// same shape that is only read.
func parallelRun(rt earth.Runtime, start, net *Net, xs, ts [][]float32, cfg ParallelConfig) *ParallelResult {
	checkSamples(net, xs, ts, cfg.Train)
	cm := commFor(rt.P(), net.NHid, net.NOut)
	st := &pstate{cfg: cfg, net: net, cm: cm, samplesX: xs, samplesT: ts,
		nodes: getWorkspaces(rt.P(), cm, start, net)}
	defer putWorkspaces(st.nodes)
	if len(xs) > 0 {
		st.outputs = make([][]float32, 0, len(xs))
		st.outRows = make([]float32, len(xs)*net.NOut)
	}
	if !cfg.Tree {
		for ph := range st.seqFrames {
			st.seqFrames[ph] = st.countFrame(func(c earth.Ctx) { st.gathered(c, phaseID(ph)) })
		}
		if cfg.Train {
			st.back = make([]float32, net.NHid)
			st.backFrame = st.countFrame(st.reducedBack)
		}
	}
	st.cost.fwdUnit = UnitCostFor(net.NHid)
	st.cost.backUnit = 2 * st.cost.fwdUnit / 3

	stats := rt.Run(func(c earth.Ctx) { st.startSample(c) })
	for k := range st.nodes {
		for _, ph := range []phaseID{phaseHidden, phaseOutput} {
			if W, B, fromW, fromB := st.rows(k, ph); fromW != nil {
				copyRows(W, B, fromW, fromB)
			}
		}
	}
	return &ParallelResult{Stats: stats, Outputs: st.outputs, Loss: st.loss}
}

// rows returns node k's weight rows and biases of phase ph's layer in the
// trained net, which the caller is about to write, and marks them written.
// Until they were, the start net's same rows hold their values: rows
// returns those as fromW, fromB then, and nil from then on.
func (st *pstate) rows(k int, ph phaseID) (W [][]float32, B []float32, fromW [][]float32, fromB []float32) {
	n := st.nodes[k]
	lo := st.cm.start[ph][k]
	hi := lo + st.cm.own[ph][k]
	W, B = st.net.layer(ph)
	if from := n.src[ph]; from != st.net {
		n.src[ph] = st.net
		fromW, fromB = from.layer(ph)
		return W[lo:hi], B[lo:hi], fromW[lo:hi], fromB[lo:hi]
	}
	return W[lo:hi], B[lo:hi], nil, nil
}

// copyRows copies the rows and biases fromW, fromB into W, B.
func copyRows(W [][]float32, B []float32, fromW [][]float32, fromB []float32) {
	for u, row := range fromW {
		copy(W[u], row)
	}
	copy(B, fromB)
}

// startSample begins the next sample on the central node, broadcasting
// the input (and target) down the tree.
func (st *pstate) startSample(c earth.Ctx) {
	if st.sample >= len(st.samplesX) {
		return
	}
	n0 := st.nodes[0]
	copy(n0.lx, st.samplesX[st.sample])
	if st.cfg.Train {
		copy(n0.lt, st.samplesT[st.sample])
		clear(st.back)
	}
	nOut := st.net.NOut
	st.y = st.outRows[st.sample*nOut : (st.sample+1)*nOut : (st.sample+1)*nOut]
	st.broadcast(c, stageHidden)
}

// stage names what a broadcast starts at every node.
type stage uint8

const (
	stageHidden stage = iota // input (and target): hiddenPhase
	stageOutput              // hidden activations: outputPhase
	stageUpdate              // summed partials: hiddenUpdate
)

// carry is the set of buffers a broadcast of stage s carries.
func (st *pstate) carry(s stage) bufSet {
	switch s {
	case stageHidden:
		if st.cfg.Train {
			return bufX | bufT
		}
		return bufX
	case stageOutput:
		return bufH
	}
	return bufB
}

// broadcast sends node 0's buffers of stage s down the communication
// structure — the tree, or straight to every node in sequential mode —
// and starts the stage at every node, node 0 included.
func (st *pstate) broadcast(c earth.Ctx, s stage) {
	st.sendDown(c, 0, s)
	st.arrive(c, 0, s)
}

// sendDown sends node k's buffers of stage s to the nodes it serves: its
// tree children, or every other node from the root in sequential mode.
// The data leaves the node when the message is issued: it is copied into
// k's outbox once, for every recipient, and each recipient copies it from
// there when its message arrives (see pstate).
func (st *pstate) sendDown(c earth.Ctx, k int, s stage) {
	to := st.cm.children(k)
	if !st.cfg.Tree {
		to = st.cm.ids
	}
	if len(to) == 0 {
		return
	}
	n := st.nodes[k]
	n.out = n.out[:0]
	carry := st.carry(s)
	for i, b := range n.bufs() {
		if carry&(1<<i) != 0 {
			n.out = append(n.out, b...)
		}
	}
	for _, chk := range to {
		c.Post(earth.NodeID(chk), 4*len(n.out), func(c earth.Ctx) { st.receiveDown(c, chk, s) })
	}
}

// receiveDown is node k's arrival of a stage-s broadcast: it copies the
// buffers from its sender's outbox, forwards them to its own children
// (tree mode) and starts the stage.
func (st *pstate) receiveDown(c earth.Ctx, k int, s stage) {
	from := 0
	if st.cfg.Tree {
		from = st.cm.parent(k)
	}
	msg, carry := st.nodes[from].out, st.carry(s)
	for i, b := range st.nodes[k].bufs() {
		if carry&(1<<i) != 0 {
			msg = msg[copy(b, msg):]
		}
	}
	if st.cfg.Tree {
		st.sendDown(c, k, s)
	}
	st.arrive(c, k, s)
}

// bufs returns n's broadcast buffers in bufSet order.
func (n *nnode) bufs() [4][]float32 { return [4][]float32{n.lx, n.lt, n.lh, n.lb} }

// arrive starts stage s at node k.
func (st *pstate) arrive(c earth.Ctx, k int, s stage) {
	switch s {
	case stageHidden:
		st.hiddenPhase(c, k)
	case stageOutput:
		st.outputPhase(c, k)
	default:
		st.hiddenUpdate(c, k)
	}
}

// hiddenPhase computes node k's hidden units and gathers them centrally.
func (st *pstate) hiddenPhase(c earth.Ctx, k int) {
	earth.SpawnBody(c, func(c earth.Ctx) {
		n := st.nodes[k]
		own, lo := st.cm.own[phaseHidden][k], st.cm.start[phaseHidden][k]
		n.src[phaseHidden].forwardUnits(phaseHidden, n.pack[phaseHidden][:own], lo, n.lx)
		c.Compute(sim.Time(own) * st.cost.fwdUnit)
		st.gather(c, k, phaseHidden)
	})
}

// forwardUnits sets dst to the activations of units [lo, lo+len(dst)) of
// phase ph's layer over in. On a net from Tabulate that holds in they are
// copied from its table; otherwise, and on a plain net, LayerForward
// computes them. It never writes the table, so the cells of a sweep that
// share one tabulated net only read it.
func (net *Net) forwardUnits(ph phaseID, dst []float32, lo int, in []float32) {
	if act, ok := net.fwd[ph][string(bitsOf(in))]; ok {
		copy(dst, act[lo:])
		return
	}
	W, B := net.layer(ph)
	hi := lo + len(dst)
	LayerForward(dst, W[lo:hi], B[lo:hi], in)
}

// layer returns the weight rows and biases of phase ph's layer.
func (net *Net) layer(ph phaseID) ([][]float32, []float32) {
	if ph == phaseOutput {
		return net.W2, net.B2
	}
	return net.W1, net.B1
}

// phase identifiers for the gather plumbing and the forward table.
type phaseID int

const (
	phaseHidden phaseID = iota
	phaseOutput
)

// central returns the buffer phase ph's gather fills at node 0 in natural
// unit order: node 0's hidden activations, or the sample's outputs.
func (st *pstate) central(ph phaseID) []float32 {
	if ph == phaseOutput {
		return st.y
	}
	return st.nodes[0].lh
}

// gather sends node k's packed result of phase ph up the tree (or
// directly to the central node), combining child contributions. When the
// root completes, the next phase runs.
func (st *pstate) gather(c earth.Ctx, k int, ph phaseID) {
	own := st.cm.own[ph][k]
	if !st.cfg.Tree {
		// Sequential: every node sends its own slice straight to central;
		// a central frame counts the arrivals. The Put's write reads the
		// slice on arrival (see pstate).
		data, start := st.nodes[k].pack[ph][:own], st.cm.start[ph][k]
		c.Put(0, own*4, func() { copy(st.central(ph)[start:], data) }, st.seqFrames[ph], 0)
		return
	}

	// Tree mode: a node is ready to send up when its own units and both
	// children's packed blocks have been merged.
	st.nodes[k].got[ph] += own
	st.trySendUp(c, k, ph)
}

// gathered runs at the central node once phase ph's gather is complete:
// the hidden activations are broadcast for the output layer; the outputs
// close the sample's forward pass.
func (st *pstate) gathered(c earth.Ctx, ph phaseID) {
	if ph == phaseHidden {
		st.broadcast(c, stageOutput)
	} else {
		st.afterOutput(c)
	}
}

// countFrame builds a sequential-mode completion frame on node 0: its
// thread runs body once every node has signalled, in every sample.
func (st *pstate) countFrame(body earth.ThreadBody) *earth.Frame {
	return earth.NewFrame(0, 1, 1).InitSync(0, st.cm.p, st.cm.p, 0).SetThread(0, body)
}

// trySendUp forwards node k's completed subtree block of phase ph toward
// the root.
func (st *pstate) trySendUp(c earth.Ctx, k int, ph phaseID) {
	n := st.nodes[k]
	sub := st.cm.sub[ph][k]
	if n.got[ph] < sub {
		return
	}
	n.got[ph] = 0 // reset for the next sample
	if k == 0 {
		// Root: unpack into the central buffer in natural order.
		central := st.central(ph)
		for pos, unit := range st.cm.perm[ph] {
			central[unit] = n.pack[ph][pos]
		}
		st.gathered(c, ph)
		return
	}
	c.Post(earth.NodeID(st.cm.parent(k)), sub*4, func(c earth.Ctx) { st.receiveUp(c, k, ph) })
}

// receiveUp merges child k's subtree block of phase ph, read from its
// pack buffer on arrival (see pstate), into its parent's.
func (st *pstate) receiveUp(c earth.Ctx, k int, ph phaseID) {
	parent, sub := st.cm.parent(k), st.cm.sub[ph]
	// Parent layout: [own(parent)][subtree(2p+1)][subtree(2p+2)].
	off := st.cm.own[ph][parent]
	if k == 2*parent+2 && 2*parent+1 < st.cm.p {
		off += sub[2*parent+1]
	}
	pn := st.nodes[parent]
	copy(pn.pack[ph][off:], st.nodes[k].pack[ph][:sub[k]])
	pn.got[ph] += sub[k]
	st.trySendUp(c, parent, ph)
}

// outputPhase computes node k's output units (and, when training, their
// deltas, weight gradients and the partial back-propagated sums).
func (st *pstate) outputPhase(c earth.Ctx, k int) {
	earth.SpawnBody(c, func(c earth.Ctx) {
		n := st.nodes[k]
		own, lo := st.cm.own[phaseOutput][k], st.cm.start[phaseOutput][k]
		n.src[phaseOutput].forwardUnits(phaseOutput, n.pack[phaseOutput][:own], lo, n.lh)
		c.Compute(sim.Time(own) * st.cost.fwdUnit)
		if st.cfg.Train {
			// Combined forward/backward at the output units: deltas,
			// W2 updates and the partial hidden sums.
			W, B, fromW, fromB := st.rows(k, phaseOutput)
			n.trainOutput(W, B, fromW, fromB, n.lt[lo:lo+own])
			c.Compute(2 * sim.Time(own) * st.cost.backUnit)
			st.reduceBack(c, k)
		}
		st.gather(c, k, phaseOutput)
	})
}

// trainOutput is the training step of the output units whose weight
// rows, biases and targets are W, B and t; n.pack[phaseOutput] holds their
// activations. It sets n.partial to their back-propagated sums for every
// hidden unit and updates the rows and biases. When fromW is not nil,
// fromW and fromB hold the rows' values instead of W and B (the node's
// first update; see pstate.rows): each block of rows is copied into W, B
// just before its pass, while it is in cache.
func (n *nnode) trainOutput(W [][]float32, B []float32, fromW [][]float32, fromB, t []float32) {
	clear(n.partial)
	if fromW == nil {
		n.outputRows(W, B, n.pack[phaseOutput], t)
		return
	}
	for u := 0; u < len(W); u += rowBlock {
		hi := min(u+rowBlock, len(W))
		copyRows(W[u:hi], B[u:hi], fromW[u:hi], fromB[u:hi])
		n.outputRows(W[u:hi], B[u:hi], n.pack[phaseOutput][u:hi], t[u:hi])
	}
}

// rowBlock is how many rows a first update copies in before their pass.
const rowBlock = 4

// outputRows adds the back-propagated terms of the output units whose
// weight rows, biases, activations and targets are W, B, y and t to
// n.partial and updates the rows and biases. Four rows share a pass over
// the hidden units, with each partial[j] kept in a register while the
// four units' terms are added in unit order. Every sum thus sees the same
// additions in the same order as with one row per pass, or with the rows
// split across calls, and every weight the same update, so the bits do not
// depend on the blocking.
func (n *nnode) outputRows(W [][]float32, B, y, t []float32) {
	partial, lh := n.partial, n.lh[:len(n.partial)]
	// (LR*d)*x, in this order: the grouping is part of the result
	// (TestParallelTrainingBitExact).
	u := 0
	for ; u+4 <= len(W); u += 4 {
		d0, d1 := OutputDelta(y[u], t[u]), OutputDelta(y[u+1], t[u+1])
		d2, d3 := OutputDelta(y[u+2], t[u+2]), OutputDelta(y[u+3], t[u+3])
		ld0, ld1, ld2, ld3 := learningRate*d0, learningRate*d1, learningRate*d2, learningRate*d3
		r0, r1 := W[u][:len(lh)], W[u+1][:len(lh)]
		r2, r3 := W[u+2][:len(lh)], W[u+3][:len(lh)]
		for j, x := range lh {
			w0, w1, w2, w3 := r0[j], r1[j], r2[j], r3[j]
			p := partial[j]
			p += w0 * d0
			p += w1 * d1
			p += w2 * d2
			p += w3 * d3
			partial[j] = p
			r0[j] = w0 - ld0*x
			r1[j] = w1 - ld1*x
			r2[j] = w2 - ld2*x
			r3[j] = w3 - ld3*x
		}
		B[u] -= ld0
		B[u+1] -= ld1
		B[u+2] -= ld2
		B[u+3] -= ld3
	}
	for ; u < len(W); u++ {
		d := OutputDelta(y[u], t[u])
		ld := learningRate * d
		row := W[u][:len(lh)]
		for j, w := range row {
			partial[j] += w * d
			row[j] = w - ld*lh[j]
		}
		B[u] -= ld
	}
}

// reduceBack combines the partial back-propagated sums toward the central
// node (a summing tree reduce, or direct sends in sequential mode).
func (st *pstate) reduceBack(c earth.Ctx, k int) {
	if !st.cfg.Tree {
		// The write adds k's sums from its partial buffer on arrival (see
		// pstate), and the Put then signals backFrame.
		c.Put(0, st.net.NHid*4, func() {
			for j, v := range st.nodes[k].partial {
				st.back[j] += v
			}
			st.backPuts++
		}, st.backFrame, 0)
		return
	}
	st.nodes[k].gotB++
	st.trySendBack(c, k)
}

// trySendBack forwards a subtree's summed partials up the tree once the
// node's own and every child's have arrived. A child's may arrive before
// the node's own body has run trainOutput, which sets partial afresh, so
// the children's are kept in childB and added only here, after the
// node's own and in arrival order: the sums see the same additions in
// the same order whichever comes first.
func (st *pstate) trySendBack(c earth.Ctx, k int) {
	n := st.nodes[k]
	need := 1 + len(st.cm.children(k))
	if n.gotB < need {
		return
	}
	n.gotB = 0
	for _, data := range n.childB {
		for j := range n.partial {
			n.partial[j] += data[j]
		}
	}
	clear(n.childB)
	n.childB = n.childB[:0]
	if k == 0 {
		copy(n.lb, n.partial)
		st.phaseDone(c)
		return
	}
	parent := st.cm.parent(k)
	c.Post(earth.NodeID(parent), st.net.NHid*4, func(c earth.Ctx) {
		// The parent adds k's sums from k's partial buffer (see pstate).
		pn := st.nodes[parent]
		pn.childB = append(pn.childB, st.nodes[k].partial)
		pn.gotB++
		st.trySendBack(c, parent)
	})
}

// reducedBack is backFrame's thread: every node's Put has added its sums.
func (st *pstate) reducedBack(c earth.Ctx) {
	if backLog != nil {
		backLog(st.backPuts)
	}
	st.backPuts = 0
	st.phaseDone(c)
}

// backLog, when set, sees the number of Puts applied each time the
// sequential back reduce completes (test diagnostics).
var backLog func(puts int)

// afterOutput runs at the central node once the outputs are gathered:
// record the sample (and its loss), then either finish the sample
// (forward-only) or wait for the backward exchange.
func (st *pstate) afterOutput(c earth.Ctx) {
	st.outputs = append(st.outputs, st.y)
	if st.cfg.Train {
		st.loss += Loss(st.y, st.nodes[0].lt)
	}
	c.Compute(sim.Time(st.net.NOut) * 100 * sim.Nanosecond) // global error calc
	st.phaseDone(c)
}

// phaseDone joins the output gather and (when training) the back reduce;
// the slower of the two advances the sample.
func (st *pstate) phaseDone(c earth.Ctx) {
	st.joined++
	need := 1
	if st.cfg.Train {
		need = 2
	}
	if st.joined < need {
		return
	}
	st.joined = 0
	if !st.cfg.Train {
		st.sample++
		st.startSample(c)
		return
	}
	// Broadcast the summed partials and run the hidden update. In
	// sequential mode they are what every node's Put added.
	if st.back != nil {
		copy(st.nodes[0].lb, st.back)
	}
	st.updatesPending = st.cm.p
	st.broadcast(c, stageUpdate)
}

// hiddenUpdate computes node k's hidden deltas and applies its W1 rows'
// gradient update, then reports completion.
func (st *pstate) hiddenUpdate(c earth.Ctx, k int) {
	earth.SpawnBody(c, func(c earth.Ctx) {
		n := st.nodes[k]
		own, lo := st.cm.own[phaseHidden][k], st.cm.start[phaseHidden][k]
		W, B, fromW, fromB := st.rows(k, phaseHidden)
		n.trainHidden(W, B, fromW, fromB, n.lb[lo:lo+own])
		c.Compute(sim.Time(own) * st.cost.backUnit)
		c.Post(0, 8, func(c earth.Ctx) {
			st.updatesPending--
			if st.updatesPending == 0 {
				st.sample++
				st.startSample(c)
			}
		})
	})
}

// trainHidden is the update of the hidden units whose weight rows,
// biases and back-propagated sums are W, B and back, with fromW and fromB
// as in trainOutput; n.pack[phaseHidden] holds their activations.
func (n *nnode) trainHidden(W [][]float32, B []float32, fromW [][]float32, fromB, back []float32) {
	if fromW == nil {
		n.hiddenRows(W, B, n.pack[phaseHidden], back)
		return
	}
	for u := 0; u < len(W); u += rowBlock {
		hi := min(u+rowBlock, len(W))
		copyRows(W[u:hi], B[u:hi], fromW[u:hi], fromB[u:hi])
		n.hiddenRows(W[u:hi], B[u:hi], n.pack[phaseHidden][u:hi], back[u:hi])
	}
}

// hiddenRows updates the hidden units whose weight rows, biases,
// activations and back-propagated sums are W, B, h and back over the
// sample's input n.lx. Four rows share a pass over the input, as in
// outputRows; each weight gets the same w - (LR·δ)·x, so the bits do not
// depend on the blocking.
func (n *nnode) hiddenRows(W [][]float32, B, h, back []float32) {
	lx := n.lx
	u := 0
	for ; u+4 <= len(W); u += 4 {
		ld0 := learningRate * HiddenDelta(h[u], back[u])
		ld1 := learningRate * HiddenDelta(h[u+1], back[u+1])
		ld2 := learningRate * HiddenDelta(h[u+2], back[u+2])
		ld3 := learningRate * HiddenDelta(h[u+3], back[u+3])
		r0, r1 := W[u][:len(lx)], W[u+1][:len(lx)]
		r2, r3 := W[u+2][:len(lx)], W[u+3][:len(lx)]
		for i, x := range lx {
			r0[i] -= ld0 * x
			r1[i] -= ld1 * x
			r2[i] -= ld2 * x
			r3[i] -= ld3 * x
		}
		B[u] -= ld0
		B[u+1] -= ld1
		B[u+2] -= ld2
		B[u+3] -= ld3
	}
	for ; u < len(W); u++ {
		ld := learningRate * HiddenDelta(h[u], back[u])
		row := W[u][:len(lx)]
		for i, w := range row {
			row[i] = w - ld*lx[i]
		}
		B[u] -= ld
	}
}
