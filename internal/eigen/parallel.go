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
	// out holds each node's task records, taken by the executing node
	// (c.Node()): a token runs on whichever node steals it.
	out []earth.Outbox[task]
}

// task is the argument of one task record: the search node's interval and
// the node whose outbox holds the record. A record is a token's argument
// (block move), the five GET sources an individual task fetches from its
// parent's node, or the fields it fetched, read by its frame's thread.
type task struct {
	st   *taskState
	iv   Interval
	from earth.NodeID
}

// restTask puts a record's argument at rest.
var restTask = func(a *task) { *a = task{} }

// letters holds the task records of finished runs, in blocks that any
// run's outboxes take: a sweep keeps about as many records as its
// concurrent runs once held at the same time.
var letters earth.Letters[task]

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
		out:    make([]earth.Outbox[task], rt.P()),
	}
	for i := range st.out {
		st.out[i] = earth.NewOutbox(&letters)
	}

	stats := rt.Run(func(c earth.Ctx) {
		root := rootInterval(t, t.CountBelow)
		c.Compute(2 * st.sturmCost)
		st.bumpCounters(c, 0, 2)
		if root.Count() <= 0 {
			return
		}
		st.res.Eigenvalues = make([]float64, 0, root.Count())
		st.spawn(c, root)
	})

	for i := range st.out {
		st.out[i].Reset(restTask)
	}
	for i := range st.tasks {
		st.res.Tasks += st.tasks[i]
		st.res.SturmCounts += st.sturms[i]
	}
	sort.Float64s(st.res.Eigenvalues)
	return &ParallelResult{Result: *st.res, Stats: stats}
}

// letter returns an unused record of the executing node's outbox holding
// iv.
func (st *taskState) letter(c earth.Ctx, iv Interval) *earth.Letter[task] {
	l := st.out[c.Node()].Next()
	l.Arg = task{st: st, iv: iv, from: c.Node()}
	return l
}

// spawn creates the task for one search node as a TOKEN subject to the
// runtime's dynamic load balancing.
func (st *taskState) spawn(c earth.Ctx, iv Interval) {
	l := st.letter(c, iv)
	if st.cfg.Args == ArgsIndividual {
		// The token carries a frame reference only; the task fetches the
		// five argument fields from the record on the parent's node.
		l.Token(c, 8, fetchArgs)
		return
	}
	l.Token(c, argBytes, runTask)
}

// runTask runs a task on its record's interval: a block-move token's
// handler, and an individual task's thread once its five fields arrived.
func runTask(c earth.Ctx, l *earth.Letter[task]) { l.Arg.st.run(c, l.Arg.iv) }

// fetchArgs is an individual task's token handler: it fetches the five
// fields of the parent's record l into a record of the executing node's
// outbox, whose body the one-slot frame's thread is. Each firing of the
// token gets its own destination.
func fetchArgs(c earth.Ctx, l *earth.Letter[task]) {
	args := &l.Arg.iv
	got := l.Arg.st.letter(c, Interval{})
	dst := &got.Arg.iv
	f := earth.NewFrame(c.Node(), 1, 1)
	f.InitSync(0, 5, 0, 0)
	f.SetThread(0, got.Thread(runTask))
	earth.GetSyncF64(c, l.Arg.from, &args.Lo, &dst.Lo, f, 0)
	earth.GetSyncF64(c, l.Arg.from, &args.Hi, &dst.Hi, f, 0)
	earth.GetSyncI64(c, l.Arg.from, &args.NLo, &dst.NLo, f, 0)
	earth.GetSyncI64(c, l.Arg.from, &args.NHi, &dst.NHi, f, 0)
	earth.GetSyncI64(c, l.Arg.from, &args.Depth, &dst.Depth, f, 0)
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
