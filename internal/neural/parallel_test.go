package neural

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
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

// TestSequentialBackReduceWaitsForEveryPut: with sequential communication
// the summed partials go out for the hidden update only once every node's
// Put has added its own: each completion of the back reduce sees all p
// Puts applied, once per sample, on a clean run and under reorder=0.3 at
// seeds 1 to 19, on four nodes. A separate Sync reporting each Put, which
// the Put's data can trail, fails it.
func TestSequentialBackReduceWaitsForEveryPut(t *testing.T) {
	const nodes, width, count = 4, 16, 6
	xs, ts := samples(width, width, count, 3)
	var seen []int
	backLog = func(puts int) { seen = append(seen, puts) }
	defer func() { backLog = nil }()
	reorder, err := faults.Parse("reorder=0.3")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		ec := earth.Config{Nodes: nodes, Seed: 9}
		if seed > 0 {
			ec = earth.Config{Nodes: nodes, Seed: seed, Faults: reorder}
		}
		seen = seen[:0]
		ParallelRun(simrt.New(ec), Square(width, 11), xs, ts, ParallelConfig{Train: true})
		if len(seen) != count {
			t.Errorf("seed %d: the back reduce completed %d times for %d samples", seed, len(seen), count)
		}
		for s, puts := range seen {
			if puts != nodes {
				t.Errorf("seed %d, sample %d: the back reduce completed with %d of %d Puts applied", seed, s, puts, nodes)
			}
		}
	}
}

// TestParallelSequentialTrainOnLiveRuntime is TestParallelTrainOnLiveRuntime
// with sequential communication: its frames are built before the run, and
// each node's partial sums reach node 0 by a Put that signals the back
// reduce's frame; the loss is the sequential one.
func TestParallelSequentialTrainOnLiveRuntime(t *testing.T) {
	width := 8
	xs, ts := samples(width, width, 3, 6)
	seqNet := Square(width, 13)
	var seqLoss float64
	for s := range xs {
		seqLoss += seqNet.TrainSample(xs[s], ts[s], learningRate)
	}
	rt := livert.New(earth.Config{Nodes: 4, Seed: 6})
	res := ParallelRun(rt, Square(width, 13), xs, ts, ParallelConfig{Train: true})
	if math.Abs(res.Loss-seqLoss) > 1e-6*(1+seqLoss) {
		t.Fatalf("live sequential-communication loss %v vs %v", res.Loss, seqLoss)
	}
}

// TestParallelTrainPausedRoot is TestParallelTrainOnLiveRuntime's run on
// the simulator with node 0 paused from 20 µs to 120 µs: its children's
// partial sums reach it before its own output-phase body runs. EARTH
// allows that order (a node's SU services a message while its EU is
// busy or stalled), and livert produces it now and then on a clean run.
// The root must still add its own partials first and the children's
// after them, so the loss is the sequential one.
func TestParallelTrainPausedRoot(t *testing.T) {
	width := 8
	xs, ts := samples(width, width, 3, 6)
	seqNet := Square(width, 13)
	var seqLoss float64
	for s := range xs {
		seqLoss += seqNet.TrainSample(xs[s], ts[s], learningRate)
	}
	plan, err := faults.Parse("pause=0@20us-120us")
	if err != nil {
		t.Fatal(err)
	}
	rt := simrt.New(earth.Config{Nodes: 4, Seed: 6, Faults: plan})
	res := ParallelRun(rt, Square(width, 13), xs, ts, ParallelConfig{Train: true, Tree: true})
	if res.Loss != seqLoss {
		t.Fatalf("paused root: loss %v, sequential %v", res.Loss, seqLoss)
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

// TestTabulatedForwardMatchesPlain: a forward run on a tabulated net is the
// plain run — the same outputs to the bit and, on the simulator, the same
// statistics to the event — on every machine size, with tree and
// sequential communication, coalesced or not, and on livert. Inputs the
// table does not hold are computed, to LayerForward's bits, and the table
// is left as it was.
func TestTabulatedForwardMatchesPlain(t *testing.T) {
	const width = 45 // uneven on 4 and 20 nodes
	net := Square(width, 3)
	xs, _ := samples(width, width, 4, 2)
	tab := Tabulate(net, xs)
	for _, nodes := range []int{1, 4, 20} {
		for _, tree := range []bool{false, true} {
			for _, coalesce := range []bool{false, true} {
				ec := earth.Config{Nodes: nodes, Seed: 7, Coalesce: earth.CoalesceConfig{Enabled: coalesce}}
				plain := ParallelRun(simrt.New(ec), net, xs, nil, ParallelConfig{Tree: tree})
				tabd := ParallelRun(simrt.New(ec), tab, xs, nil, ParallelConfig{Tree: tree})
				if !sameBits(tabd.Outputs, plain.Outputs) || !reflect.DeepEqual(tabd, plain) {
					t.Errorf("simrt nodes=%d tree=%v coalesce=%v: tabulated run differs: elapsed %v vs %v, events %d vs %d",
						nodes, tree, coalesce, tabd.Stats.Elapsed, plain.Stats.Elapsed, tabd.Stats.Events, plain.Stats.Events)
				}
			}
		}
	}
	plain := ParallelRun(livert.New(earth.Config{Nodes: 4, Seed: 7}), net, xs, nil, ParallelConfig{Tree: true})
	tabd := ParallelRun(livert.New(earth.Config{Nodes: 4, Seed: 7}), tab, xs, nil, ParallelConfig{Tree: true})
	if !sameBits(tabd.Outputs, plain.Outputs) {
		t.Error("livert: tabulated run's outputs differ from the plain run's")
	}

	others, _ := samples(width, width, 3, 9)
	for _, nodes := range []int{1, 4} {
		got := ParallelRun(simrt.New(earth.Config{Nodes: nodes, Seed: 7}), tab, others, nil, ParallelConfig{Tree: true})
		for s, x := range others {
			_, want := net.Forward(x)
			if !sameBits(got.Outputs[s:s+1], [][]float32{want}) {
				t.Errorf("nodes=%d sample %d, not in the table: outputs differ from LayerForward's", nodes, s)
			}
		}
	}
	if !reflect.DeepEqual(tableBits(tab), tableBits(Tabulate(net, xs))) {
		t.Error("the misses wrote into the table")
	}
}

// tableBits is n's forward table with each activation vector as its bits,
// so that tables holding NaNs compare equal when their bits do.
func tableBits(n *Net) [2]map[string]string {
	var out [2]map[string]string
	for ph, m := range n.fwd {
		out[ph] = map[string]string{}
		for k, v := range m {
			out[ph][k] = string(bitsOf(v))
		}
	}
	return out
}

// sameBits reports whether a and b hold the same float32 bits.
func sameBits(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			return false
		}
		for k := range a[s] {
			if math.Float32bits(a[s][k]) != math.Float32bits(b[s][k]) {
				return false
			}
		}
	}
	return true
}

// TestTabulatedNetNeverTrains: training would write the weights the table
// was computed from. So ParallelRun refuses to train a tabulated net,
// ParallelTrainFrom — which trains from one into a scratch net — refuses a
// scratch net that is tabulated or shares its start's weights, and a Clone,
// which may train, is a plain net. Neither the refused runs nor a run that
// trains from the tabulated net write it.
func TestTabulatedNetNeverTrains(t *testing.T) {
	xs, ts := samples(8, 8, 2, 1)
	plain := Square(8, 1)
	tab := Tabulate(plain, xs)
	if c := tab.Clone(); c.fwd[phaseHidden] != nil || c.fwd[phaseOutput] != nil {
		t.Error("Clone carried the forward table")
	}
	rt := func() earth.Runtime { return simrt.New(earth.Config{Nodes: 2, Seed: 1}) }
	cfg := ParallelConfig{Train: true, Tree: true}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"ParallelRun on the tabulated net", func() { ParallelRun(rt(), tab, xs, ts, cfg) }},
		{"a tabulated scratch net", func() { ParallelTrainFrom(rt(), plain, Tabulate(plain.Clone(), xs), xs, ts, cfg) }},
		{"a scratch net sharing the start's weights", func() { ParallelTrainFrom(rt(), tab, plain, xs, ts, cfg) }},
		{"a scratch net of another shape", func() { ParallelTrainFrom(rt(), tab, Square(9, 1), xs, ts, cfg) }},
		{"ParallelTrainFrom without Train", func() { ParallelTrainFrom(rt(), tab, plain.Clone(), xs, nil, ParallelConfig{}) }},
	} {
		if !panics(c.run) {
			t.Errorf("%s: no panic", c.name)
		}
	}
	ParallelTrainFrom(rt(), tab, plain.Clone(), xs, ts, cfg)
	if !reflect.DeepEqual(tab, Tabulate(Square(8, 1), xs)) {
		t.Error("a run wrote the tabulated net")
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestParallelRunChecksSampleSizes: an input or a target of the wrong
// length is refused before the run, as Net.Forward refuses a short input,
// instead of running on the previous sample's tail.
func TestParallelRunChecksSampleSizes(t *testing.T) {
	xs, ts := samples(8, 8, 2, 1)
	short := [][]float32{xs[0], xs[1][:2]}
	long := [][]float32{append(xs[0], 1), xs[1]}
	rt := func() earth.Runtime { return simrt.New(earth.Config{Nodes: 2, Seed: 1}) }
	fwd, train := ParallelConfig{Tree: true}, ParallelConfig{Train: true, Tree: true}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"short input, forward", func() { ParallelRun(rt(), Square(8, 1), short, nil, fwd) }},
		{"long input, forward", func() { ParallelRun(rt(), Square(8, 1), long, nil, fwd) }},
		{"short input, training", func() { ParallelRun(rt(), Square(8, 1), short, ts, train) }},
		{"short target, training", func() { ParallelRun(rt(), Square(8, 1), xs, [][]float32{ts[0], ts[1][:7]}, train) }},
		{"short input, tabulated start", func() { ParallelTrainFrom(rt(), Tabulate(Square(8, 1), xs), Square(8, 2), short, ts, train) }},
	} {
		if !panics(c.run) {
			t.Errorf("%s: no panic", c.name)
		}
	}
	if panics(func() { ParallelRun(rt(), Square(8, 1), xs, [][]float32{{1}}, fwd) }) {
		t.Error("a forward run checked the targets it does not read")
	}
}

// TestTabulatedTrainingMatchesCopy: training from a start net into a
// scratch net holding other weights is CopyFrom followed by ParallelRun —
// the same ParallelResult (Stats included) and the same trained weights,
// bit for bit — on every machine size, with tree and sequential
// communication, coalesced or not, and on livert (statistics aside). The start is the net
// tabulated over the samples; one whose table lacks sample 0, so the first
// forward pass computes from the start's rows; a run without samples,
// whose rows are all copied at the end; and a plain start. The start is
// never written.
func TestTabulatedTrainingMatchesCopy(t *testing.T) {
	const width = 45 // uneven on 2, 7, 20 and 48 nodes
	net := Square(width, 3)
	xs, ts := samples(width, width, 4, 2)
	others, _ := samples(width, width, 1, 9)
	tab := Tabulate(net, xs)
	missing := Tabulate(net, xs[1:])
	cases := []struct {
		name   string
		start  *Net
		xs, ts [][]float32
	}{
		{"tabulated", tab, xs, ts},
		{"sample 0 missing", missing, xs, ts},
		{"sample 0 not tabulated", tab, append([][]float32{others[0]}, xs[1:]...), ts},
		{"no samples", tab, nil, nil},
		{"plain start", net, xs, ts},
	}
	check := func(label string, start *Net, xs, ts [][]float32, rt func() earth.Runtime, cfg ParallelConfig, whole bool) {
		want := net.Clone()
		wantRes := ParallelRun(rt(), want, xs, ts, cfg)
		scratch := Square(width, 99)
		got := ParallelTrainFrom(rt(), start, scratch, xs, ts, cfg)
		if !sameBits(got.Outputs, wantRes.Outputs) || got.Loss != wantRes.Loss || !sameWeights(scratch, want) ||
			whole && !reflect.DeepEqual(got, wantRes) {
			t.Errorf("%s: training from the start differs from CopyFrom + ParallelRun: loss %v vs %v, elapsed %v vs %v",
				label, got.Loss, wantRes.Loss, got.Stats.Elapsed, wantRes.Stats.Elapsed)
		}
	}
	for _, c := range cases {
		for _, nodes := range []int{1, 2, 3, 7, 20, 48} {
			for _, tree := range []bool{false, true} {
				for _, coalesce := range []bool{false, true} {
					ec := earth.Config{Nodes: nodes, Seed: 7, Coalesce: earth.CoalesceConfig{Enabled: coalesce}}
					check(fmt.Sprintf("%s, simrt nodes=%d tree=%v coalesce=%v", c.name, nodes, tree, coalesce),
						c.start, c.xs, c.ts, func() earth.Runtime { return simrt.New(ec) },
						ParallelConfig{Train: true, Tree: tree}, true)
				}
			}
		}
	}
	// On two nodes the root adds one child's partial sums, so livert's
	// schedule cannot reorder an addition: the bits are a pure function
	// of the samples there.
	check("livert", tab, xs, ts, func() earth.Runtime { return livert.New(earth.Config{Nodes: 2, Seed: 7}) },
		ParallelConfig{Train: true, Tree: true}, false)
	if !reflect.DeepEqual(net, Square(width, 3)) || !reflect.DeepEqual(tableBits(tab), tableBits(Tabulate(net, xs))) {
		t.Error("training wrote the start net or its table")
	}
}

// sameWeights reports whether a and b hold the same weights and biases,
// bit for bit.
func sameWeights(a, b *Net) bool {
	return sameBits(a.W1, b.W1) && sameBits(a.W2, b.W2) &&
		sameBits([][]float32{a.B1, a.B2}, [][]float32{b.B1, b.B2})
}

// FuzzTabulatedTraining: ParallelTrainFrom from a tabulated start into a
// scratch net of other weights equals CopyFrom + ParallelRun — outputs,
// loss and statistics, and the trained weights bit for bit — for any
// width, machine size, sample count and communication mode, with sample 0
// in the table or not.
func FuzzTabulatedTraining(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(4), uint8(3), uint8(0b011))
	f.Add(int64(2), uint8(44), uint8(47), uint8(4), uint8(0b110))
	f.Add(int64(3), uint8(0), uint8(2), uint8(1), uint8(0b101))
	f.Add(int64(4), uint8(12), uint8(6), uint8(0), uint8(0b001))
	f.Fuzz(func(t *testing.T, seed int64, size, nodes, count, flags uint8) {
		width := 1 + int(size)%48
		net := Square(width, seed)
		xs, ts := samples(width, width, int(count)%5, seed)
		tabulated := xs
		if flags&4 != 0 && len(xs) > 0 {
			tabulated = xs[1:] // sample 0 misses the table
		}
		tab := Tabulate(net, tabulated)
		ec := earth.Config{Nodes: 1 + int(nodes)%48, Seed: seed, Coalesce: earth.CoalesceConfig{Enabled: flags&2 != 0}}
		cfg := ParallelConfig{Train: true, Tree: flags&1 != 0}
		want := net.Clone()
		wantRes := ParallelRun(simrt.New(ec), want, xs, ts, cfg)
		scratch := Square(width, seed+1)
		got := ParallelTrainFrom(simrt.New(ec), tab, scratch, xs, ts, cfg)
		if !sameBits(got.Outputs, wantRes.Outputs) || !reflect.DeepEqual(got, wantRes) || !sameWeights(scratch, want) {
			t.Fatalf("width %d on %d nodes, %d samples: training from the table differs from CopyFrom + ParallelRun", width, ec.Nodes, len(xs))
		}
		if !reflect.DeepEqual(tableBits(tab), tableBits(Tabulate(net, tabulated))) {
			t.Fatal("training wrote the table")
		}
	})
}

// FuzzTabulatedForward: on a tabulated net, every node's slice of either
// layer equals LayerForward's bits over the same weights, for inputs the
// table holds (hits) and for any other (misses), and a miss leaves the
// table as it was. One tabulated input carries the fuzzed word (NaN, ±0,
// ±Inf among them); the misses differ from it only there, by +0, -0, a
// NaN or the word's last bit.
func FuzzTabulatedForward(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(0), uint8(24), uint16(3), uint32(0x3f800000))
	f.Add(int64(2), uint8(1), uint8(0), uint8(1), uint16(0), uint32(0x80000000)) // -0
	f.Add(int64(3), uint8(45), uint8(40), uint8(2), uint16(44), uint32(0x7fc00001))
	f.Add(int64(4), uint8(13), uint8(5), uint8(7), uint16(9), uint32(0xff800000))
	f.Add(int64(5), uint8(6), uint8(2), uint8(3), uint16(1), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, size, lo, own uint8, at uint16, word uint32) {
		width := 1 + int(size)%48
		l := int(lo) % width
		hi := l + 1 + int(own)%(width-l)
		net := Square(width, seed)
		xs, _ := samples(width, width, 2, seed)
		i := int(at) % width
		xs[1][i] = math.Float32frombits(word)
		tab := Tabulate(net, xs)
		h0, _ := net.Forward(xs[0])
		h1, _ := net.Forward(xs[1])
		payloads := [][]float32{xs[0], xs[1], h0, h1}
		for _, v := range []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(word ^ 1)} {
			p := append([]float32(nil), xs[1]...)
			p[i] = v
			payloads = append(payloads, p)
		}
		for _, in := range payloads {
			for _, ph := range []phaseID{phaseHidden, phaseOutput} {
				W, B := net.W1, net.B1
				if ph == phaseOutput {
					W, B = net.W2, net.B2
				}
				got, want := make([]float32, hi-l), make([]float32, hi-l)
				tab.forwardUnits(ph, got, l, in)
				LayerForward(want, W[l:hi], B[l:hi], in)
				if !sameBits([][]float32{got}, [][]float32{want}) {
					t.Fatalf("phase %d units [%d,%d): tabulated %v, LayerForward %v", ph, l, hi, got, want)
				}
			}
		}
		if !reflect.DeepEqual(tableBits(tab), tableBits(Tabulate(net, xs))) {
			t.Fatal("a lookup wrote into the table")
		}
	})
}
