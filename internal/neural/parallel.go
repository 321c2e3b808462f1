package neural

import (
	"fmt"

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

// nnode is the per-node state. Fields are owned by their node.
type nnode struct {
	lx, lt, lh, lb []float32 // local copies of broadcast data
	packH, packY   []float32 // packed gather buffers (tree order)
	partial        []float32 // partial back-propagated sums
	gotH, gotY     int       // fill counters for packed buffers (tree mode)
	gotB           int       // reduce contributions received (tree mode)
	// childB holds the children's summed partials in arrival order until
	// the node's own are in partial (tree mode); see trySendBack.
	childB [][]float32
	// src[ph] is the net whose rows of phase ph's layer the node reads:
	// the run's start net until the node first writes them, the trained
	// net from then on (see ParallelTrainFrom).
	src [2]*Net
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
type comm struct {
	p        int
	ids      []int // 1 … p-1: node k's children are ids[2k : 2k+2], clipped
	hidOwn   []int // units owned per node
	outOwn   []int
	hidStart []int
	outStart []int
	hidSub   []int // subtree unit totals
	outSub   []int
	hidPerm  []int // packed position -> unit index at the root
	outPerm  []int
}

func newComm(p, nHid, nOut int) *comm {
	cm := &comm{p: p,
		hidOwn: make([]int, p), outOwn: make([]int, p),
		hidStart: make([]int, p), outStart: make([]int, p),
		hidSub: make([]int, p), outSub: make([]int, p),
	}
	split := func(total int, own, start []int) {
		for k := 0; k < p; k++ {
			lo := k * total / p
			hi := (k + 1) * total / p
			own[k] = hi - lo
			start[k] = lo
		}
	}
	split(nHid, cm.hidOwn, cm.hidStart)
	split(nOut, cm.outOwn, cm.outStart)
	var sub func(k int, own []int, out []int) int
	sub = func(k int, own []int, out []int) int {
		if k >= p {
			return 0
		}
		s := own[k] + sub(2*k+1, own, out) + sub(2*k+2, own, out)
		out[k] = s
		return s
	}
	sub(0, cm.hidOwn, cm.hidSub)
	sub(0, cm.outOwn, cm.outSub)
	cm.hidPerm = cm.perm(cm.hidOwn, cm.hidStart)
	cm.outPerm = cm.perm(cm.outOwn, cm.outStart)
	cm.ids = make([]int, p-1)
	for i := range cm.ids {
		cm.ids[i] = i + 1
	}
	return cm
}

// perm maps the root's packed gather layout to natural unit indices.
func (cm *comm) perm(own, start []int) []int {
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

// children returns k's tree children, a window on ids the caller must not
// write.
func (cm *comm) children(k int) []int {
	return cm.ids[min(2*k, len(cm.ids)):min(2*k+2, len(cm.ids))]
}

// parent returns k's tree parent.
func (cm *comm) parent(k int) int { return (k - 1) / 2 }

// pstate is the whole distributed state of one run.
type pstate struct {
	cfg  ParallelConfig
	net  *Net
	cm   *comm
	cost struct {
		fwdUnit  sim.Time // per unit, forward phases
		backUnit sim.Time // per unit, each of the three backward phases
	}

	// Central buffers and phase bookkeeping (owned by node 0).
	x, target, h, y, back []float32
	sample                int
	samplesX, samplesT    [][]float32
	outputs               [][]float32
	loss                  float64
	seqFrames             [2]*earth.Frame
	backFrame             *earth.Frame
	joined                int
	updatesPending        int

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
	st := &pstate{
		cfg: cfg, net: net, cm: newComm(rt.P(), net.NHid, net.NOut),
		x: make([]float32, net.NIn), target: make([]float32, net.NOut),
		h: make([]float32, net.NHid), y: make([]float32, net.NOut),
		back:     make([]float32, net.NHid),
		samplesX: xs, samplesT: ts,
		nodes: make([]*nnode, rt.P()),
	}
	st.cost.fwdUnit = UnitCostFor(net.NHid)
	st.cost.backUnit = 2 * st.cost.fwdUnit / 3
	for k := range st.nodes {
		st.nodes[k] = &nnode{
			lx: make([]float32, net.NIn), lt: make([]float32, net.NOut),
			lh: make([]float32, net.NHid), lb: make([]float32, net.NHid),
			packH:   make([]float32, st.cm.hidSub[k]),
			packY:   make([]float32, st.cm.outSub[k]),
			partial: make([]float32, net.NHid),
			src:     [2]*Net{start, start},
		}
	}

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
	lo, hi := st.cm.hidStart[k], st.cm.hidStart[k]+st.cm.hidOwn[k]
	if ph == phaseOutput {
		lo, hi = st.cm.outStart[k], st.cm.outStart[k]+st.cm.outOwn[k]
	}
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
	copy(st.x, st.samplesX[st.sample])
	if st.cfg.Train {
		copy(st.target, st.samplesT[st.sample])
		for j := range st.back {
			st.back[j] = 0
		}
	}
	carry := bufX
	if st.cfg.Train {
		carry |= bufT
	}
	st.broadcast(c, carry, st.hiddenPhase)
}

// broadcast sends central data down the communication structure. seed:
// node 0 copies the central buffers into its local ones first. The
// buffers in carry travel from parent-local to child-local data (copied
// on the child after the modelled message); onArrive runs at every node
// (including node 0).
func (st *pstate) broadcast(c earth.Ctx, carry bufSet, onArrive func(earth.Ctx, int)) {
	// Node 0 seeds its local copies from the central buffers.
	n0 := st.nodes[0]
	copy(n0.lx, st.x)
	copy(n0.lt, st.target)
	copy(n0.lh, st.h)
	copy(n0.lb, st.back)

	if st.cm.p == 1 {
		onArrive(c, 0)
		return
	}
	// One snapshot per sending node, shared by every recipient: the data
	// leaves the node once and the recipients only read it, so sharing is
	// safe on both engines (and cuts the host-side copying that used to be
	// done once per child).
	if !st.cfg.Tree {
		snap := snapshotNode(n0, carry)
		for k := 1; k < st.cm.p; k++ {
			k := k
			c.Post(earth.NodeID(k), snap.bytes(), func(c earth.Ctx) {
				st.nodes[k].receive(snap)
				onArrive(c, k)
			})
		}
		onArrive(c, 0)
		return
	}
	var down func(c earth.Ctx, k int)
	down = func(c earth.Ctx, k int) {
		ch := st.cm.children(k)
		if len(ch) == 0 {
			return
		}
		snap := snapshotNode(st.nodes[k], carry)
		for _, chk := range ch {
			chk := chk
			c.Post(earth.NodeID(chk), snap.bytes(), func(c earth.Ctx) {
				st.nodes[chk].receive(snap)
				down(c, chk)
				onArrive(c, chk)
			})
		}
	}
	down(c, 0)
	onArrive(c, 0)
}

// snapshotNode captures the buffers in carry from a node at message-send
// time (the data leaves the node when the message is issued). The other
// buffers of the snapshot stay nil.
func snapshotNode(n *nnode, carry bufSet) *nnode {
	snap := &nnode{}
	if carry&bufX != 0 {
		snap.lx = append([]float32(nil), n.lx...)
	}
	if carry&bufT != 0 {
		snap.lt = append([]float32(nil), n.lt...)
	}
	if carry&bufH != 0 {
		snap.lh = append([]float32(nil), n.lh...)
	}
	if carry&bufB != 0 {
		snap.lb = append([]float32(nil), n.lb...)
	}
	return snap
}

// bytes is the modelled wire size of a snapshot: its float32s.
func (snap *nnode) bytes() int {
	return 4 * (len(snap.lx) + len(snap.lt) + len(snap.lh) + len(snap.lb))
}

// receive copies what a snapshot carries into n's local buffers.
func (n *nnode) receive(snap *nnode) {
	copy(n.lx, snap.lx)
	copy(n.lt, snap.lt)
	copy(n.lh, snap.lh)
	copy(n.lb, snap.lb)
}

// hiddenPhase computes node k's hidden units and gathers them centrally.
func (st *pstate) hiddenPhase(c earth.Ctx, k int) {
	earth.SpawnBody(c, func(c earth.Ctx) {
		n := st.nodes[k]
		own, lo := st.cm.hidOwn[k], st.cm.hidStart[k]
		n.src[phaseHidden].forwardUnits(phaseHidden, n.packH[:own], lo, n.lx)
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

// gather sends node k's packed result up the tree (or directly to the
// central node), combining child contributions. When the root completes,
// the next phase runs.
func (st *pstate) gather(c earth.Ctx, k int, ph phaseID) {
	own, sub, perm := st.cm.hidOwn, st.cm.hidSub, st.cm.hidPerm
	pack := func(n *nnode) []float32 { return n.packH }
	got := func(n *nnode) *int { return &n.gotH }
	central := st.h
	next := st.afterHidden
	if ph == phaseOutput {
		own, sub, perm = st.cm.outOwn, st.cm.outSub, st.cm.outPerm
		pack = func(n *nnode) []float32 { return n.packY }
		got = func(n *nnode) *int { return &n.gotY }
		central = st.y
		next = st.afterOutput
	}

	if !st.cfg.Tree {
		// Sequential: every node sends its own slice straight to central;
		// a central frame counts the arrivals.
		n := st.nodes[k]
		data := append([]float32(nil), pack(n)[:own[k]]...)
		start := st.cm.hidStart[k]
		if ph == phaseOutput {
			start = st.cm.outStart[k]
		}
		kOwn := own[k]
		f := st.phaseFrame(ph, next)
		c.Put(0, kOwn*4, func() {
			copy(central[start:start+kOwn], data)
		}, f, 0)
		return
	}

	// Tree mode: a node is ready to send up when its own units and both
	// children's packed blocks have been merged.
	n := st.nodes[k]
	*got(n) += own[k]
	st.trySendUp(c, k, ph, pack, got, own, sub, perm, central, next)
}

// phaseFrame lazily creates the per-sample completion frame for a
// sequential-mode phase.
func (st *pstate) phaseFrame(ph phaseID, next func(earth.Ctx)) *earth.Frame {
	if st.seqFrames[ph] == nil {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, st.cm.p, st.cm.p, 0)
		f.SetThread(0, func(c earth.Ctx) { next(c) })
		st.seqFrames[ph] = f
	}
	return st.seqFrames[ph]
}

// trySendUp forwards a completed subtree block toward the root.
func (st *pstate) trySendUp(c earth.Ctx, k int, ph phaseID,
	pack func(*nnode) []float32, got func(*nnode) *int,
	own, sub, perm []int, central []float32, next func(earth.Ctx)) {

	n := st.nodes[k]
	if *got(n) < sub[k] {
		return
	}
	*got(n) = 0 // reset for the next sample
	if k == 0 {
		// Root: unpack into the central buffer in natural order.
		for pos, unit := range perm {
			central[unit] = pack(n)[pos]
		}
		next(c)
		return
	}
	parent := st.cm.parent(k)
	data := append([]float32(nil), pack(n)[:sub[k]]...)
	// Parent layout: [own(parent)][subtree(2p+1)][subtree(2p+2)].
	off := own[parent]
	if k == 2*parent+2 && 2*parent+1 < st.cm.p {
		off += sub[2*parent+1]
	}
	c.Post(earth.NodeID(parent), sub[k]*4, func(c earth.Ctx) {
		pn := st.nodes[parent]
		copy(pack(pn)[off:off+len(data)], data)
		*got(pn) += len(data)
		st.trySendUp(c, parent, ph, pack, got, own, sub, perm, central, next)
	})
}

// afterHidden runs at the central node once all hidden activations are
// gathered: broadcast them for the output layer.
func (st *pstate) afterHidden(c earth.Ctx) {
	st.broadcast(c, bufH, st.outputPhase)
}

// outputPhase computes node k's output units (and, when training, their
// deltas, weight gradients and the partial back-propagated sums).
func (st *pstate) outputPhase(c earth.Ctx, k int) {
	earth.SpawnBody(c, func(c earth.Ctx) {
		n := st.nodes[k]
		own, lo := st.cm.outOwn[k], st.cm.outStart[k]
		n.src[phaseOutput].forwardUnits(phaseOutput, n.packY[:own], lo, n.lh)
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
// rows, biases and targets are W, B and t; n.packY holds their
// activations. It sets n.partial to their back-propagated sums for every
// hidden unit and updates the rows and biases. When fromW is not nil,
// fromW and fromB hold the rows' values instead of W and B (the node's
// first update; see pstate.rows): each block of rows is copied into W, B
// just before its pass, while it is in cache.
func (n *nnode) trainOutput(W [][]float32, B []float32, fromW [][]float32, fromB, t []float32) {
	clear(n.partial)
	if fromW == nil {
		n.outputRows(W, B, n.packY, t)
		return
	}
	for u := 0; u < len(W); u += rowBlock {
		hi := min(u+rowBlock, len(W))
		copyRows(W[u:hi], B[u:hi], fromW[u:hi], fromB[u:hi])
		n.outputRows(W[u:hi], B[u:hi], n.packY[u:hi], t[u:hi])
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
	bytes := st.net.NHid * 4
	if !st.cfg.Tree {
		n := st.nodes[k]
		data := append([]float32(nil), n.partial...)
		c.Put(0, bytes, func() {
			for j := range st.back {
				st.back[j] += data[j]
			}
		}, nil, 0)
		st.seqPhaseSync2(c)
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
	n.childB = n.childB[:0]
	if k == 0 {
		copy(st.back, n.partial)
		st.backReady(c)
		return
	}
	parent := st.cm.parent(k)
	data := append([]float32(nil), n.partial...)
	c.Post(earth.NodeID(parent), st.net.NHid*4, func(c earth.Ctx) {
		pn := st.nodes[parent]
		pn.childB = append(pn.childB, data)
		pn.gotB++
		st.trySendBack(c, parent)
	})
}

// seqPhaseSync2 counts back-reduce completions in sequential mode.
func (st *pstate) seqPhaseSync2(c earth.Ctx) {
	if st.backFrame == nil {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, st.cm.p, st.cm.p, 0)
		f.SetThread(0, func(c earth.Ctx) { st.backReady(c) })
		st.backFrame = f
	}
	c.Sync(st.backFrame, 0)
}

// afterOutput runs at the central node once the outputs are gathered:
// record the sample (and its loss), then either finish the sample
// (forward-only) or wait for the backward exchange.
func (st *pstate) afterOutput(c earth.Ctx) {
	out := append([]float32(nil), st.y...)
	st.outputs = append(st.outputs, out)
	if st.cfg.Train {
		st.loss += Loss(st.y, st.target)
	}
	c.Compute(sim.Time(st.net.NOut) * 100 * sim.Nanosecond) // global error calc
	st.phaseDone(c)
}

// backReady runs at the central node when the summed back-propagated
// values are available: broadcast them for the hidden update.
func (st *pstate) backReady(c earth.Ctx) {
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
	// Broadcast the summed partials and run the hidden update.
	st.updatesPending = st.cm.p
	st.broadcast(c, bufB, st.hiddenUpdate)
}

// hiddenUpdate computes node k's hidden deltas and applies its W1 rows'
// gradient update, then reports completion.
func (st *pstate) hiddenUpdate(c earth.Ctx, k int) {
	earth.SpawnBody(c, func(c earth.Ctx) {
		n := st.nodes[k]
		own, lo := st.cm.hidOwn[k], st.cm.hidStart[k]
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
// as in trainOutput; n.packH holds their activations.
func (n *nnode) trainHidden(W [][]float32, B []float32, fromW [][]float32, fromB, back []float32) {
	if fromW == nil {
		n.hiddenRows(W, B, n.packH, back)
		return
	}
	for u := 0; u < len(W); u += rowBlock {
		hi := min(u+rowBlock, len(W))
		copyRows(W[u:hi], B[u:hi], fromW[u:hi], fromB[u:hi])
		n.hiddenRows(W[u:hi], B[u:hi], n.packH[u:hi], back[u:hi])
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
