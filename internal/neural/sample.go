package neural

import (
	"fmt"

	"earth/internal/earth"
	"earth/internal/sim"
)

// Sample parallelism, the alternative the paper contrasts with unit
// parallelism in Section 3.3: "running several neural networks in
// parallel, each processing different subsets of the samples in batch
// mode (without any communication); only at the end of the training phase
// is information exchanged". The frequently used hybrid approach —
// "repeatedly presenting small batches and performing an update after
// every batch" — is the BatchSize knob: BatchSize == len(samples) is pure
// sample parallelism (one exchange per epoch), smaller batches
// synchronise more often and converge in fewer presentations, trading
// communication for update freshness. BatchSize == 1 degenerates to
// online updates with no intra-sample parallelism (that regime is what
// unit parallelism is for).
//
// Every node holds a replica of the network; a batch is split across
// nodes; per-node gradient sums travel up a combining tree to node 0,
// which applies the update and broadcasts the new weights.

// SampleConfig configures sample-parallel training.
type SampleConfig struct {
	// BatchSize is the number of samples per global weight update
	// (default: all samples — pure sample parallelism).
	BatchSize int
}

// SampleResult carries the outcome of a sample-parallel run.
type SampleResult struct {
	Stats *earth.Stats
	// Loss is the summed pre-update loss of the epoch.
	Loss float64
	// Updates counts global weight updates performed.
	Updates int
}

// gradBytes is the wire size of a full gradient (or weight) exchange.
func gradBytes(n *Net) int {
	return 4 * (n.NHid*n.NIn + n.NHid + n.NOut*n.NHid + n.NOut)
}

// addGradients accumulates src into dst.
func addGradients(dst, src *Gradients) {
	for j := range dst.DW1 {
		for i := range dst.DW1[j] {
			dst.DW1[j][i] += src.DW1[j][i]
		}
		dst.DB1[j] += src.DB1[j]
	}
	for k := range dst.DW2 {
		for j := range dst.DW2[k] {
			dst.DW2[k][j] += src.DW2[k][j]
		}
		dst.DB2[k] += src.DB2[k]
	}
}

// TrainBatch is the sequential reference: accumulate the gradients of one
// batch at fixed weights, then apply the summed update once. Returns the
// batch's pre-update loss.
//
//unref:allow test oracle: the sequential reference the parallel trainers must match bit for bit
func (n *Net) TrainBatch(xs, ts [][]float32, lr float32) float64 {
	acc := n.NewGradients()
	var loss float64
	for s := range xs {
		h, y := n.Forward(xs[s])
		g, _ := n.Backward(xs[s], h, y, ts[s])
		addGradients(acc, g)
		loss += Loss(y, ts[s])
	}
	n.Apply(acc, lr)
	return loss
}

// sampleRun is the state of one sample-parallel training run. Node w owns
// replicas[w] and partials[w]; everything else belongs to node 0.
type sampleRun struct {
	cfg    SampleConfig
	net    *Net
	xs, ts [][]float32
	p      int
	// replicas: node 0 uses net itself; the others deep-copy it.
	replicas []*Net
	// partials holds each node's gradient sum over its share of the
	// current batch.
	partials  []*Gradients
	perSample sim.Time // modelled fwd+bwd cost of one sample, two layers
	start     int      // first sample of the current batch
	res       SampleResult
}

// SampleParallelTrain trains net on rt with sample parallelism for one
// epoch — one pass over the samples at learningRate; k calls train k
// epochs. Every node trains a replica; node 0's replica is `net` itself
// (updated in place). The result is numerically equal to sequential
// TrainBatch with the same batch size up to float32 summation grouping of
// the gradient (the per-node partial sums are combined in node order).
func SampleParallelTrain(rt earth.Runtime, net *Net, xs, ts [][]float32, cfg SampleConfig) *SampleResult {
	if len(xs) == 0 || len(xs) != len(ts) {
		panic(fmt.Sprintf("neural: bad sample set (%d inputs, %d targets)", len(xs), len(ts)))
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = len(xs)
	}
	p := rt.P()
	r := &sampleRun{
		cfg: cfg, net: net, xs: xs, ts: ts, p: p,
		replicas:  make([]*Net, p),
		partials:  make([]*Gradients, p),
		perSample: 4 * sim.Time(net.NHid) * UnitCostFor(net.NHid),
	}
	r.replicas[0] = net
	for i := 1; i < p; i++ {
		r.replicas[i] = net.Clone()
	}
	r.res.Stats = rt.Run(r.runBatch)
	res := r.res // a copy: the result must not keep the replicas alive
	return &res
}

// runBatch scatters the batch at r.start over the nodes, has each
// accumulate the gradient of its share on its replica, and gathers the
// partial sums on node 0, where applyAndNext takes over.
func (r *sampleRun) runBatch(c earth.Ctx) {
	end := min(r.start+r.cfg.BatchSize, len(r.xs))
	batch := end - r.start
	// Scatter: every node learns the batch range (the samples are
	// data-parallel inputs, replicated like the training set).
	join := earth.NewFrame(0, 1, 1)
	join.InitSync(0, r.p, 0, 0)
	var batchLoss float64
	join.SetThread(0, func(c earth.Ctx) {
		// Combine the per-node partial gradients in node order, so
		// the float32 summation grouping is deterministic.
		summed := r.net.NewGradients()
		for w := 0; w < r.p; w++ {
			if r.partials[w] != nil {
				addGradients(summed, r.partials[w])
			}
		}
		r.applyAndNext(c, summed, batchLoss)
	})
	for w := 0; w < r.p; w++ {
		lo := r.start + w*batch/r.p
		hi := r.start + (w+1)*batch/r.p
		c.Invoke(earth.NodeID(w), 16, func(c earth.Ctx) {
			rep := r.replicas[w]
			acc := rep.NewGradients()
			var loss float64
			for s := lo; s < hi; s++ {
				h, y := rep.Forward(r.xs[s])
				g, _ := rep.Backward(r.xs[s], h, y, r.ts[s])
				addGradients(acc, g)
				loss += Loss(y, r.ts[s])
			}
			r.partials[w] = acc
			c.Compute(sim.Time(hi-lo) * r.perSample)
			// Ship the partial gradient to node 0 and report the
			// loss; the join thread combines in node order.
			c.Put(0, gradBytes(r.net), func() {
				batchLoss += loss
			}, join, 0)
		})
	}
}

// applyAndNext applies the batch's summed gradient on node 0's replica,
// broadcasts the update to the other replicas (weight exchange) and, once
// all have it, starts the next batch — or ends the run after the last.
func (r *sampleRun) applyAndNext(c earth.Ctx, summed *Gradients, batchLoss float64) {
	r.res.Updates++
	r.res.Loss += batchLoss
	r.replicas[0].Apply(summed, learningRate)
	bcast := earth.NewFrame(0, 1, 1)
	bcast.InitSync(0, max(r.p-1, 1), 0, 0)
	bcast.SetThread(0, func(c earth.Ctx) {
		if r.start += r.cfg.BatchSize; r.start < len(r.xs) {
			r.runBatch(c)
		}
	})
	if r.p == 1 {
		c.Sync(bcast, 0)
		return
	}
	for w := 1; w < r.p; w++ {
		c.Put(earth.NodeID(w), gradBytes(r.net), func() {
			r.replicas[w].Apply(summed, learningRate)
		}, bcast, 0)
	}
}
