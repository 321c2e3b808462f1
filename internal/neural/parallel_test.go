package neural

import (
	"math"
	"math/rand"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/sim"
)

func samples(nIn, nOut, count int, seed int64) (xs, ts [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < count; s++ {
		x := make([]float32, nIn)
		t := make([]float32, nOut)
		for i := range x {
			x[i] = float32(rng.Float64())
		}
		for i := range t {
			t[i] = float32(rng.Float64())
		}
		xs = append(xs, x)
		ts = append(ts, t)
	}
	return
}

func TestParallelForwardMatchesSequential(t *testing.T) {
	net := Square(24, 5)
	xs, _ := samples(24, 24, 4, 1)
	for _, nodes := range []int{1, 2, 3, 7} {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 2})
		res := ParallelRun(rt, net.Clone(), xs, nil, ParallelConfig{Tree: true})
		if len(res.Outputs) != len(xs) {
			t.Fatalf("nodes=%d: %d outputs", nodes, len(res.Outputs))
		}
		for s := range xs {
			_, want := net.Forward(xs[s])
			for k := range want {
				if res.Outputs[s][k] != want[k] {
					t.Fatalf("nodes=%d sample=%d unit=%d: %v vs %v",
						nodes, s, k, res.Outputs[s][k], want[k])
				}
			}
		}
	}
}

func TestParallelTrainingMatchesSequential(t *testing.T) {
	width := 16
	xs, ts := samples(width, width, 6, 3)
	seqNet := Square(width, 11)
	parNet := seqNet.Clone()

	var seqLoss float64
	for s := range xs {
		seqLoss += seqNet.TrainSample(xs[s], ts[s], learningRate)
	}

	rt := simrt.New(earth.Config{Nodes: 4, Seed: 9})
	res := ParallelRun(rt, parNet, xs, ts, ParallelConfig{Train: true, Tree: true})

	if math.Abs(res.Loss-seqLoss) > 1e-6*(1+math.Abs(seqLoss)) {
		t.Fatalf("loss: parallel %v vs sequential %v", res.Loss, seqLoss)
	}
	// Weights after training agree closely, not bitwise: the sequential
	// Backward adds each hidden unit's back-propagated terms in float64 in
	// output unit order, the parallel run adds them in float32 per node and
	// then up its tree, and the two orders round differently. (The forward
	// activations agree bitwise: both add a unit's products in index
	// order.)
	for j := range seqNet.W1 {
		for i := range seqNet.W1[j] {
			d := math.Abs(float64(seqNet.W1[j][i] - parNet.W1[j][i]))
			if d > 1e-5 {
				t.Fatalf("W1[%d][%d] drifted by %v", j, i, d)
			}
		}
	}
	for k := range seqNet.W2 {
		for j := range seqNet.W2[k] {
			d := math.Abs(float64(seqNet.W2[k][j] - parNet.W2[k][j]))
			if d > 1e-5 {
				t.Fatalf("W2[%d][%d] drifted by %v", k, j, d)
			}
		}
	}
}

func TestParallelSpeedsUp(t *testing.T) {
	width := 80
	xs, _ := samples(width, width, 4, 7)
	run := func(nodes int) sim.Time {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 1})
		res := ParallelRun(rt, Square(width, 2), xs, nil, ParallelConfig{Tree: true})
		return res.Stats.Elapsed
	}
	one, eight := run(1), run(8)
	sp := float64(one) / float64(eight)
	if sp < 3 {
		t.Fatalf("8-node speedup only %.2f", sp)
	}
}

func TestTreeBeatsSequentialComm(t *testing.T) {
	// The paper: tree communication raised the 80-unit max speedup from 8
	// to 12. At 16 nodes the tree variant must be faster.
	width := 80
	xs, _ := samples(width, width, 4, 8)
	run := func(tree bool) sim.Time {
		rt := simrt.New(earth.Config{Nodes: 16, Seed: 1})
		res := ParallelRun(rt, Square(width, 2), xs, nil, ParallelConfig{Tree: tree})
		return res.Stats.Elapsed
	}
	treeT, seqT := run(true), run(false)
	if treeT >= seqT {
		t.Fatalf("tree (%v) not faster than sequential comm (%v)", treeT, seqT)
	}
}

func TestParallelForwardOnLiveRuntime(t *testing.T) {
	net := Square(12, 6)
	xs, _ := samples(12, 12, 3, 4)
	rt := livert.New(earth.Config{Nodes: 3, Seed: 5})
	res := ParallelRun(rt, net.Clone(), xs, nil, ParallelConfig{Tree: true})
	for s := range xs {
		_, want := net.Forward(xs[s])
		for k := range want {
			if res.Outputs[s][k] != want[k] {
				t.Fatalf("sample %d unit %d differs", s, k)
			}
		}
	}
}

func TestParallelTrainOnLiveRuntime(t *testing.T) {
	width := 8
	xs, ts := samples(width, width, 3, 6)
	seqNet := Square(width, 13)
	parNet := seqNet.Clone()
	var seqLoss float64
	for s := range xs {
		seqLoss += seqNet.TrainSample(xs[s], ts[s], learningRate)
	}
	rt := livert.New(earth.Config{Nodes: 4, Seed: 6})
	res := ParallelRun(rt, parNet, xs, ts, ParallelConfig{Train: true, Tree: true})
	if math.Abs(res.Loss-seqLoss) > 1e-6*(1+seqLoss) {
		t.Fatalf("live loss %v vs %v", res.Loss, seqLoss)
	}
}

func TestUnevenUnitSplit(t *testing.T) {
	// Width not divisible by node count must still be exact.
	net := Square(13, 21)
	xs, _ := samples(13, 13, 2, 9)
	rt := simrt.New(earth.Config{Nodes: 5, Seed: 3})
	res := ParallelRun(rt, net.Clone(), xs, nil, ParallelConfig{Tree: true})
	for s := range xs {
		_, want := net.Forward(xs[s])
		for k := range want {
			if res.Outputs[s][k] != want[k] {
				t.Fatalf("sample %d unit %d differs", s, k)
			}
		}
	}
}

func TestParallelValidation(t *testing.T) {
	net := Square(4, 1)
	xs, _ := samples(4, 4, 2, 1)
	rt := simrt.New(earth.Config{Nodes: 2, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for training without targets")
		}
	}()
	ParallelRun(rt, net, xs, nil, ParallelConfig{Train: true})
}

// TestParallelTrainingBitExact pins trained weights and loss to the bit,
// which TestParallelTrainingMatchesSequential's 1e-5 tolerance cannot: a
// reassociated (LR*d)*x moves them. The wire path (coalesced or not) must
// not reach the arithmetic at all.
func TestParallelTrainingBitExact(t *testing.T) {
	for _, c := range []struct {
		width, nodes  int
		tree          bool
		weights, loss uint64
	}{
		{16, 4, true, 0x78e5d0d7e9198004, 0x4010aafec488ec96},
		{16, 4, false, 0x9f9dcdf63c35a94b, 0x4010aafec488ec96},
		{33, 5, true, 0xa886eaa5dca3b918, 0x4020d4b5d7eaa69c}, // uneven split
		{33, 5, false, 0x8f9a5db4d16d10cf, 0x4020d4b5d86ace5e},
	} {
		for _, coalesce := range []bool{false, true} {
			xs, ts := samples(c.width, c.width, 6, 3)
			net := Square(c.width, 11)
			rt := simrt.New(earth.Config{Nodes: c.nodes, Seed: 9, Coalesce: earth.CoalesceConfig{Enabled: coalesce}})
			res := ParallelRun(rt, net, xs, ts, ParallelConfig{Train: true, Tree: c.tree})
			if w, l := weightSum(net), math.Float64bits(res.Loss); w != c.weights || l != c.loss {
				t.Errorf("width %d on %d nodes, tree=%v coalesce=%v: weights %#x loss %#x, want %#x %#x",
					c.width, c.nodes, c.tree, coalesce, w, l, c.weights, c.loss)
			}
		}
	}
}
