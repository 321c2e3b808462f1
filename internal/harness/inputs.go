package harness

import (
	"sync"

	"earth/internal/eigen"
	"earth/internal/groebner"
	"earth/internal/neural"
	"earth/internal/sim"
)

// Experiment inputs that are pure functions of constants — the width-u
// paper network with its samples and forward table, the sequential
// Gröbner completion of a paper input, the Table 1 matrix of a seed with
// its sequential bisection — are built once per process and shared by
// every cell of every sweep. Nothing else that
// depends on Config (machines, runtimes) is kept here. See DESIGN.md,
// "Inputs are built once, cells are independent".

// memo computes a value at most once per key — also when several pool
// workers ask for a key first at the same moment — and keeps it for the
// life of the process.
type memo[K comparable, V any] struct {
	m sync.Map // K → func() V, a sync.OnceValue
}

func (c *memo[K, V]) get(k K, compute func() V) V {
	f, ok := c.m.Load(k)
	if !ok {
		f, _ = c.m.LoadOrStore(k, sync.OnceValue(compute))
	}
	return f.(func() V)()
}

// paperSamples is the number of samples every NN experiment but
// Ablation D runs through the width-u network.
const paperSamples = 4

// paperNet owns the width-u network every NN experiment runs — u units in
// every layer, initialised from seed 1 — and its paperSamples samples.
type paperNet struct {
	// weights is never written after construction: every cell reads it
	// concurrently, through forward (TestPaperNetsStayPristine).
	weights *neural.Net
	// forward is weights tabulated over xs (neural.Tabulate): the forward
	// cells copy their units' activations from its table, and the
	// unit-parallel training cells start from it.
	forward *neural.Net
	// xs and ts are nnSamples(u, paperSamples), shared read-only.
	xs, ts [][]float32
	// idle holds the training cells' scratch nets between uses: a plain
	// free list, not a sync.Pool, which the collector empties every second
	// cycle. It holds at most one net per training cell that ran at the
	// same time, so at most Config.Workers.
	mu   sync.Mutex
	idle []*neural.Net
}

var paperNets memo[int, *paperNet]

func paperNetOf(u int) *paperNet {
	return paperNets.get(u, func() *paperNet {
		p := &paperNet{weights: neural.Square(u, 1)}
		p.xs, p.ts = nnSamples(u, paperSamples)
		p.forward = neural.Tabulate(p.weights, p.xs)
		return p
	})
}

// samples returns the first n of the width-u samples, inputs and targets;
// nnSamples is prefix-stable, so they are nnSamples(u, n). They are
// shared: the caller must not write them.
func (p *paperNet) samples(n int) (xs, ts [][]float32) { return p.xs[:n], p.ts[:n] }

// forwardNet returns the width-u network for a cell that runs forward
// passes only, tabulated over its samples. It is shared: the caller must
// not write its weights, and cannot train it.
func forwardNet(u int) *neural.Net { return paperNetOf(u).forward }

// trainOnCopy runs cell on the width-u network tabulated over its samples
// (start, shared read-only) and a private scratch net of that width
// holding whatever the last cell left in it, and recycles the scratch net
// when cell returns — so cell must not return before its Run has, when
// nothing writes it any more. A unit-parallel cell trains from start into
// scratch (neural.ParallelTrainFrom), which copies nothing up front; any
// other cell copies start into scratch first.
func trainOnCopy(u int, cell func(start, scratch *neural.Net) sim.Time) sim.Time {
	p := paperNetOf(u)
	var scratch *neural.Net
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		scratch = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if scratch == nil {
		scratch = p.weights.Clone()
	}
	elapsed := cell(p.forward, scratch)
	p.mu.Lock()
	p.idle = append(p.idle, scratch)
	p.mu.Unlock()
	return elapsed
}

// seqBasis is the sequential completion of one paper input.
type seqBasis struct {
	b   *groebner.Basis
	err error
}

var seqBases memo[string, seqBasis]

// sequentialBasis returns the sequential Gröbner completion of a paper
// input, identified by its name. The basis is shared and read-only.
func sequentialBasis(in groebner.NamedInput) seqBasis {
	return seqBases.get(in.Name, func() seqBasis {
		b, err := groebner.Buchberger(in.F, in.Opt)
		return seqBasis{b, err}
	})
}

// eigenIn is the Table 1 workload of one seed: the matrix tabulated by its
// sequential bisection (eigen.Tabulate), the tolerance, and that
// bisection's Result.
type eigenIn struct {
	m   *eigen.SymTridiag
	tol float64
	seq *eigen.Result
}

// seqTime is the sequential bisection's modelled uniprocessor runtime.
func (in eigenIn) seqTime() sim.Time {
	return eigen.SeqVirtualTime(in.seq, eigen.SturmCostFor(in.m.N()))
}

var eigenInputs memo[int64, eigenIn]

// eigenInput returns the Table 1 workload of a seed. Matrix and Result are
// shared and read-only; the parallel cells read the sequential run's Sturm
// counts from the matrix's table.
func eigenInput(seed int64) eigenIn {
	return eigenInputs.get(seed, func() eigenIn {
		m, tol := EigenWorkload(seed)
		tab, seq := eigen.Tabulate(m, tol)
		return eigenIn{tab, tol, seq}
	})
}
