package eigen

import (
	"sort"

	"earth/internal/earth"
	"earth/internal/sim"
)

// The EARTH parallelisation of bisection follows the paper's Section 3.1:
// the matrix is replicated on every node, each search node of the
// dynamically unfolding tree becomes one EARTH task (no grouping of
// search nodes — they are coarse enough at n = 1000), tasks are spawned
// with TOKEN and placed by the runtime's dynamic load balancer, and only
// the interval boundaries travel: "3 integers and 2 doubles = 28 bytes".
//
// Two argument-passing variants are measured in Figure 2:
//
//   - ArgsBlockMove: the whole argument structure ships with the token.
//   - ArgsIndividual: the token carries only a frame reference; the task
//     fetches the five fields with individual split-phase GET_SYNCs from
//     its parent's node (the variant whose latency the McCAT compiler
//     hides with extra threads).
//
// The paper found the difference insignificant; the benchmark verifies
// the same holds here.

// ArgVariant selects how task arguments travel.
type ArgVariant int

const (
	// ArgsBlockMove ships the 28-byte argument structure with the token.
	ArgsBlockMove ArgVariant = iota
	// ArgsIndividual fetches each argument field with its own remote
	// access.
	ArgsIndividual
)

func (v ArgVariant) String() string {
	if v == ArgsIndividual {
		return "individual"
	}
	return "blockmove"
}

// argBytes is the task argument size the paper reports.
const argBytes = 3*4 + 2*8 // 3 integers + 2 doubles = 28

// ParallelConfig configures a parallel bisection run.
type ParallelConfig struct {
	// Tol is the absolute eigenvalue tolerance.
	Tol float64
	// Args selects the argument-passing variant.
	Args ArgVariant
}

// SturmCostFor returns the modelled cost of one Sturm evaluation for
// dimension n, calibrated so n = 1000 costs the paper's 7.82 ms (Table 1).
func SturmCostFor(n int) sim.Time {
	return sim.Time(n) * sim.FromMicroseconds(7.82)
}

// ParallelResult extends Result with runtime statistics.
type ParallelResult struct {
	Result
	Stats *earth.Stats
}

// taskState is the per-run shared bookkeeping. Leaf results are collected
// on node 0 (all writes execute on node 0's context via Put operations);
// task and Sturm counters are kept per node and summed after the run.
type taskState struct {
	t         *SymTridiag
	cfg       ParallelConfig
	sturmCost sim.Time
	res       *Result // owned by node 0
	tasks     []int   // per-node, owned by each node
	sturms    []int
}

// ParallelBisect computes all eigenvalues of t on the EARTH runtime rt.
// The matrix is assumed replicated (it is read-only shared state); the
// work unfolds as a token tree from node 0.
func ParallelBisect(rt earth.Runtime, t *SymTridiag, cfg ParallelConfig) *ParallelResult {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	if cfg.Tol <= 0 {
		panic("eigen: tolerance must be positive")
	}
	st := &taskState{
		t: t, cfg: cfg, sturmCost: SturmCostFor(t.N()),
		res:    newResult(),
		tasks:  make([]int, rt.P()),
		sturms: make([]int, rt.P()),
	}

	stats := rt.Run(func(c earth.Ctx) {
		root := rootInterval(t, t.CountBelow)
		c.Compute(2 * st.sturmCost)
		st.bumpCounters(c, 0, 2)
		if root.Count() <= 0 {
			return
		}
		st.spawn(c, root)
	})

	for i := range st.tasks {
		st.res.Tasks += st.tasks[i]
		st.res.SturmCounts += st.sturms[i]
	}
	sort.Float64s(st.res.Eigenvalues)
	return &ParallelResult{Result: *st.res, Stats: stats}
}

// spawn creates the task for one search node as a TOKEN subject to the
// runtime's dynamic load balancing.
func (st *taskState) spawn(c earth.Ctx, iv Interval) {
	parent := c.Node()
	switch st.cfg.Args {
	case ArgsIndividual:
		// The token carries a frame reference only; the task fetches the
		// five argument fields from the parent's node individually.
		// args lives on the parent until all five gets complete.
		args := iv
		c.Token(8, func(c earth.Ctx) {
			var got Interval
			f := earth.NewFrame(c.Node(), 1, 1)
			f.InitSync(0, 5, 0, 0)
			f.SetThread(0, func(c earth.Ctx) { st.run(c, got) })
			earth.GetSyncF64(c, parent, &args.Lo, &got.Lo, f, 0)
			earth.GetSyncF64(c, parent, &args.Hi, &got.Hi, f, 0)
			earth.GetSyncI64(c, parent, &args.NLo, &got.NLo, f, 0)
			earth.GetSyncI64(c, parent, &args.NHi, &got.NHi, f, 0)
			earth.GetSyncI64(c, parent, &args.Depth, &got.Depth, f, 0)
		})
	default: // ArgsBlockMove
		c.Token(argBytes, func(c earth.Ctx) { st.run(c, iv) })
	}
}

// run is the task body: one bisection step, then either emit a leaf or
// spawn the children.
func (st *taskState) run(c earth.Ctx, iv Interval) {
	var scratch Result
	leaf, kids, n := step(st.t.CountBelow, iv, st.cfg.Tol, &scratch)
	c.Compute(sim.Time(scratch.SturmCounts) * st.sturmCost)
	st.bumpCounters(c, 1, scratch.SturmCounts)
	if leaf {
		// Report the resolved interval to node 0 (a small synchronising
		// store: two doubles and the counts).
		c.Put(0, argBytes, func() { st.res.emitLeaf(iv) }, nil, 0)
		return
	}
	for _, ch := range kids[:n] {
		st.spawn(c, ch)
	}
}

// bumpCounters accumulates task/Sturm counts in the current node's slot.
func (st *taskState) bumpCounters(c earth.Ctx, tasks, sturms int) {
	st.tasks[c.Node()] += tasks
	st.sturms[c.Node()] += sturms
}

// SeqVirtualTime models the uniprocessor runtime of a sequential
// bisection: Sturm evaluations priced at the configured cost.
func SeqVirtualTime(r *Result, sturmCost sim.Time) sim.Time {
	return sim.Time(r.SturmCounts) * sturmCost
}
