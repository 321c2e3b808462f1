package enginetest

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/pin"
	"earth/internal/sim"
)

// The fault-conformance matrix: the matrix program on {simrt, livert} ×
// {coalescing off, on} × {sanitizer off, on} × the plan rows below. Fault
// plans may reshape timing and placement and, when a partition outlives the
// lease, lose the fenced side's work — never apply an effect twice, never
// hang, and every counter agrees with the events that define it. A row
// whose plan fences nobody must also converge to the fault-free answer.
// The rows are also FuzzFaultMatrix's seeds (fuzz_test.go), which explores
// the plans and program shapes between them with the same checkCell.

// leafWork is a leaf's length on most rows: long enough that each plan's
// crashes, fences and heals land mid-run on livert, where a faulted row's
// leaves sleep it on the wall clock.
const leafWork = 250 * sim.Microsecond

// matrixRow is one fault plan of the matrix, with the program it runs.
type matrixRow struct {
	name  string
	plan  *faults.Plan
	retry earth.RetryPolicy
	prog  progShape
	// chaos marks message faults dense enough that every counter of the
	// recovery path must move.
	chaos bool
	// dropChain, when set, is the length some message's run of lost
	// attempts must reach on simrt: what a retry row is there to exercise.
	dropChain sim.Time
	// sample is the row's Config.UtilSamplePeriod.
	sample sim.Time
}

// spec parses a row's fault plan.
func spec(s string) *faults.Plan {
	p, err := faults.Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

var matrixRows = []matrixRow{
	{name: "clean", prog: rowShape(4, leafWork)},
	{name: "util-sampled", prog: rowShape(4, leafWork), sample: 100 * sim.Microsecond},
	{name: "chaos", plan: spec("drop=0.08,dup=0.05,reorder=0.1,window=150µs,seed=13"), prog: rowShape(4, leafWork), chaos: true},
	{name: "crash", plan: spec("crash=2@150µs,crash=5@400µs,drop=0.05,dup=0.02,seed=14"), prog: rowShape(8, leafWork)},
	{name: "above-lease", plan: spec("partition=0.1|2.3@200µs-2500µs,corrupt=0.1,drop=0.05,seed=7"), prog: rowShape(4, leafWork)},
	{name: "below-lease", plan: spec("partition=0.1|2.3@200µs-600µs,seed=7"), prog: rowShape(4, leafWork)},
	{name: "composed", plan: spec(composedSpec), prog: rowShape(8, sim.Millisecond)},
	// Under a lease longer than the window nobody fences.
	{name: "composed-lease-20ms", plan: spec(composedSpec), prog: rowShape(8, sim.Millisecond),
		retry: earth.RetryPolicy{Lease: 20 * sim.Millisecond}},
	// At drop=0.7 about one message in seventeen loses all eight attempts, so
	// messages land on their final permitted attempt, 25.4ms after issue,
	// while the detector is still mid-lease on crashed node 1.
	{name: "retry-budget-exhausted-in-crash-window", plan: spec("drop=0.7,crash=1@300µs,seed=5"), prog: rowShape(4, leafWork),
		retry: earth.RetryPolicy{Lease: 26 * sim.Millisecond}, dropChain: 25400 * sim.Microsecond},
	// Six lost attempts in a row (0.6⁶ ≈ 5 %) wait out a timeout on the
	// 6.4ms backoff cap, 12.6ms in all, while degraded (8× wire time)
	// traffic and a crash pile up behind them.
	{name: "backoff-cap-under-degradation", plan: spec("drop=0.6,degrade=*@0-2msx8,crash=2@400µs,seed=9"), prog: rowShape(5, leafWork),
		dropChain: 12600 * sim.Microsecond},
	// Three workers killed in turn never lose a token; node 0 (the
	// accumulator's home) survives. When node 1 is declared down at 1.5ms,
	// its successors 2 and 3 have crashed but are not declared yet: node 4
	// adopts.
	{name: "converges-tokens", plan: spec("crash=1@500µs,crash=2@750µs,crash=3@1ms,seed=7"), prog: rowShape(5, leafWork)},
	// Bursts from one or five senders, a batch's worth and more, clean and
	// under drops and duplicates.
	{name: "burst-chaos", plan: spec("drop=0.12,dup=0.07,window=120µs,seed=9"), prog: burstShape(2, 6)},
	{name: "burst-clean-tiny-batch", prog: burstShape(6, 12)},
	{name: "burst-maxfaults", plan: spec("drop=0.49,dup=0.49,window=120µs,seed=9"), prog: burstShape(2, 13)},
	// Partitions over a fan-out tree: a window inside the lease; node 0
	// alone on the minority side, fenced, with and without corruption; and
	// a two-node minority fenced late in the run.
	{name: "short-window", plan: spec("partition=0.1|2.3.4.5@200µs-350µs,seed=1"), prog: treeShape(6, 3, leafWork)},
	{name: "long-window-fences", plan: spec("partition=0|1.2@100µs-2600µs,seed=1"), prog: treeShape(3, 3, leafWork)},
	{name: "long-window-corrupt", plan: spec("partition=0|1.2.3@0s-3ms,corrupt=0.4,seed=1"), prog: treeShape(4, 2, leafWork)},
	{name: "lopsided-split", plan: spec("partition=0.1|2.3.4@900µs-2700µs,corrupt=0.2,seed=1"), prog: treeShape(5, 3, leafWork)},
	// FuzzFaultMatrix's first finding: a 4.85ms leaf on node 2 runs across
	// its crash at 150µs and, bodies being atomic, past its declaration at
	// 4.65ms. Node 5 is outside the machine.
	{name: "body-outlives-lease", plan: spec("crash=2@150µs,crash=5@400µs,drop=0.05,dup=0.02,window=480µs,seed=14"),
		retry: earth.RetryPolicy{Lease: 4500 * sim.Microsecond},
		prog:  progShape{nodes: 3, spread: 1, hops: []hop{{hopInvoke, 2}}, branch: 1, burst: 7, work: 4850 * sim.Microsecond}},
	// Node 1 is the minority of two overlapping windows, cut from node 0 and
	// then from nodes 2 and 3: fenced once, it rejoins when the later heals.
	{name: "fenced-again-before-rejoin", plan: spec("partition=0|1@0s-3ms,partition=2.3|1@1ms-4ms"), prog: rowShape(4, leafWork)},
	// Node 2 is fenced twice back to back: the first window's heal and the
	// second's fence fall at one instant, 3ms. On livert either timer may
	// run first; node 2 rejoins twice and stays down until the second heal.
	{name: "fenced-again-at-heal", plan: spec("partition=0|2@0s-3ms,partition=1|2@2ms-5ms"), prog: rowShape(3, leafWork)},
	// Nodes 1 and 2 crash together, so both are declared down at 1.3ms:
	// node 1's work must pass over node 2, its ring successor, to node 3.
	{name: "simultaneous-detections", plan: spec("crash=1@300µs,crash=2@300µs,seed=7"), prog: rowShape(8, leafWork)},
	// A put node 3 issued at 148µs is corrupted; its retransmission is
	// received at 349µs, just before node 3's fence at 350µs, and takes
	// effect one receive stage later.
	{name: "put-received-before-fence", plan: spec("partition=0.1.2|3@200µs-4.1ms,drop=0.05,corrupt=0.32,window=480µs,seed=49"),
		retry: earth.RetryPolicy{Lease: 150 * sim.Microsecond},
		prog: progShape{nodes: 8, spread: 8, hops: []hop{{hopInvoke, 3}, {hopInvoke, 0}, {hopInvoke, 2}, {hopInvoke, 2}, {hopInvoke, 3},
			{kind: hopToken}, {kind: hopToken}, {kind: hopToken}}, levels: []hop{{kind: hopToken}}, branch: 1, burst: 24, work: 2400 * sim.Microsecond}},
}

// hopKind is how a body reaches the node that runs the next one.
type hopKind uint8

const (
	hopToken  hopKind = iota // pooled, placed by the load balancer
	hopInvoke                // invoked on a node
	hopPost                  // posted to a node
)

// hop is one spawning step; at is the target node of an Invoke or a Post.
type hop struct {
	kind hopKind
	at   earth.NodeID
}

// progShape is the shape of the matrix program. Main reaches spreader s
// through hops[s]; a spreader spawns its leaves through one nesting level
// per entry of levels, branch children each, so it has branch^len(levels)
// leaves (a spreader with no levels is its one leaf). Then it puts a burst
// of puts to node 0 — 8 bytes each, the last two 2048 bytes when big —
// posts node 0 a note and syncs one fan-in slot.
type progShape struct {
	nodes, spread int
	hops, levels  []hop
	branch        int
	burst         int
	big           bool
	work          sim.Time // leaf length
}

// leaves is the number of leaves under one spreader.
func (p progShape) leaves() int {
	n := 1
	for range p.levels {
		n *= p.branch
	}
	return n
}

// fillsBatches reports whether a spreader's burst, when its body runs off
// node 0 under coalescing, must fill one batch on the count limit (16) and
// one on the byte limit (4096): the burst is the body's only traffic to
// node 0 (leaves are pooled tokens), holds 16 puts before its two big ones,
// and the count limit does not fall between those two.
func (p progShape) fillsBatches() bool {
	if small := p.burst - 2; len(p.levels) == 0 || !p.big || small < 16 || small%16 == 15 {
		return false
	}
	for _, h := range p.levels {
		if h.kind != hopToken {
			return false
		}
	}
	return true
}

// rowShape is the shape most rows run: two spreaders per node, invoked
// round the machine, each pooling four leaf tokens and putting a burst
// that trips both coalescing limits.
func rowShape(nodes int, work sim.Time) progShape {
	p := progShape{nodes: nodes, spread: 2 * nodes, levels: []hop{{kind: hopToken}}, branch: 4,
		burst: 22, big: true, work: work}
	for s := 0; s < p.spread; s++ {
		p.hops = append(p.hops, hop{hopInvoke, earth.NodeID(s % nodes)})
	}
	return p
}

// burstShape is one sender invoked on each node but 0, each putting a
// burst of n small puts and running its one leaf inline.
func burstShape(nodes, n int) progShape {
	p := progShape{nodes: nodes, spread: nodes - 1, branch: 1, burst: n}
	for s := 0; s < p.spread; s++ {
		p.hops = append(p.hops, hop{hopInvoke, earth.NodeID(s + 1)})
	}
	return p
}

// treeShape is a fan-out tree three hops deep with branch children per
// hop: spreaders invoked on node 0, posted to node 1 and pooled as a
// token, then a level of tokens and a level of invokes.
func treeShape(nodes, branch int, work sim.Time) progShape {
	return progShape{nodes: nodes, spread: 3, hops: []hop{{hopInvoke, 0}, {hopPost, 1}, {kind: hopToken}},
		levels: []hop{{kind: hopToken}, {hopInvoke, 1}}, branch: branch, burst: 4, work: work}
}

// cellResult is what the matrix program applied on node 0.
type cellResult struct {
	hits  []int   // per leaf: contributions applied
	seqs  [][]int // per spreader: indices of the burst puts applied, in order
	off   []bool  // per spreader: a burst put applied came from a node other than 0
	posts []int   // per spreader: posts run
	wrong int     // contributions that carried a wrongly fetched word
	done  [2]bool // the fan-in threads: every leaf in, every spreader in
}

// matrixProg is the matrix's program of shape p. A leaf computes for
// p.work (and, when sleep is set, sleeps as long), fetches the cell of an
// owner fixed by the leaf — half the leaves through the word Get, half
// through the closure Get — and then its own node's, so that one frame is
// signalled from a remote node and then locally, and puts its contribution
// to node 0 behind one fan-in slot; each spreader syncs the other.
func matrixProg(res *cellResult, p progShape, sleep bool) earth.ThreadBody {
	*res = cellResult{hits: make([]int, p.spread*p.leaves()), seqs: make([][]int, p.spread),
		off: make([]bool, p.spread), posts: make([]int, p.spread)}
	cells := make([]int, p.nodes)
	for n := range cells {
		cells[n] = 1000 + n
	}
	return func(c earth.Ctx) {
		fin := earth.NewFrame(0, 2, 2)
		fin.InitSync(0, len(res.hits), 0, 0)
		fin.InitSync(1, p.spread, 0, 1)
		fin.SetThread(0, func(earth.Ctx) { res.done[0] = true })
		fin.SetThread(1, func(earth.Ctx) { res.done[1] = true })
		leaf := func(c earth.Ctx, v int) {
			c.Compute(p.work)
			if sleep {
				time.Sleep(time.Duration(p.work))
			}
			owner, here := earth.NodeID((3*v+1)%p.nodes), c.Node()
			var got, mine int
			g := earth.NewFrame(here, 1, 1)
			g.InitSync(0, 2, 0, 0)
			g.SetThread(0, func(c earth.Ctx) {
				ok := got == cells[owner] && mine == cells[here]
				c.Put(0, 8, func() {
					res.hits[v]++
					if !ok {
						res.wrong++
					}
				}, fin, 0)
			})
			if v%2 == 0 {
				earth.GetSyncI64(c, owner, &cells[owner], &got, g, 0)
			} else {
				earth.GetSyncVal(c, owner, earth.SizeI64, &cells[owner], &got, g, 0)
			}
			earth.GetSyncI64(c, here, &cells[here], &mine, g, 0)
		}
		// spawn runs body at the far end of h, as the i-th child of its level.
		spawn := func(c earth.Ctx, h hop, i int, body earth.ThreadBody) {
			at := earth.NodeID((int(h.at) + i) % p.nodes)
			switch h.kind {
			case hopInvoke:
				c.Invoke(at, 8, body)
			case hopPost:
				c.Post(at, 8, body)
			default:
				c.Token(8, body)
			}
		}
		var descend func(c earth.Ctx, level, v int)
		descend = func(c earth.Ctx, level, v int) {
			if level == len(p.levels) {
				leaf(c, v)
				return
			}
			for i := 0; i < p.branch; i++ {
				spawn(c, p.levels[level], i, func(c earth.Ctx) { descend(c, level+1, v*p.branch+i) })
			}
		}
		for s := 0; s < p.spread; s++ {
			spawn(c, p.hops[s], 0, func(c earth.Ctx) {
				descend(c, 0, s)
				off := c.Node() != 0
				for i := 0; i < p.burst; i++ {
					n := 8
					if p.big && i >= p.burst-2 {
						n = 2048
					}
					c.Put(0, n, func() {
						res.seqs[s] = append(res.seqs[s], i)
						res.off[s] = res.off[s] || off
					}, nil, 0)
				}
				c.Post(0, 8, func(earth.Ctx) { res.posts[s]++ })
				c.Sync(fin, 1)
			})
		}
	}
}

// matrixCell is one cell: a row on one engine, wire path and sanitizer
// setting, traced unless untraced is set.
type matrixCell struct {
	row             matrixRow
	live, coal, san bool
	untraced        bool
}

func (c matrixCell) name() string {
	eng := "simrt"
	if c.live {
		eng = "livert"
	}
	if c.untraced {
		return fmt.Sprintf("%s/%s/untraced", eng, c.row.name)
	}
	return fmt.Sprintf("%s/%s/%s/sanitize=%v", eng, c.row.name, coalName(c.coal), c.san)
}

func (c matrixCell) config() earth.Config {
	return earth.Config{Nodes: c.row.prog.nodes, Seed: 11, Retry: c.row.retry, Sanitize: c.san,
		Coalesce: earth.CoalesceConfig{Enabled: c.coal}, Faults: c.row.plan, UtilSamplePeriod: c.row.sample}
}

// cellRun is one run of a cell: its stats and event stream, what the
// program applied, and on a traced simrt cell the marshalled bytes.
type cellRun struct {
	st  *earth.Stats
	evs []earth.Event
	res cellResult
	sim simOut
}

// run runs the cell. A faulted livert cell's leaves sleep their work, so
// that the plan's instants land mid-run.
func (c matrixCell) run(t *testing.T) cellRun {
	t.Helper()
	cfg := c.config()
	var r cellRun
	body := matrixProg(&r.res, c.row.prog, c.live && c.row.plan.Enabled())
	switch {
	case c.untraced && c.live:
		r.st = newLive(cfg).Run(body)
	case c.untraced:
		r.st = simrt.New(cfg).Run(body)
	case !c.live:
		r.sim = simRun(t, cfg, body)
		r.st, r.evs = r.sim.st, r.sim.evs
	default:
		col := &traceCollector{}
		cfg.Tracer = col
		r.st = newLive(cfg).Run(body)
		r.evs = col.evs
	}
	return r
}

// counterEvents pairs each counter with the event kind whose occurrences
// define it.
var counterEvents = []struct {
	kind  earth.EventKind
	count func(*earth.NodeStats) uint64
}{
	{earth.EvPartitionFence, func(n *earth.NodeStats) uint64 { return n.WrongVerdicts }},
	{earth.EvFrameReplayed, func(n *earth.NodeStats) uint64 { return n.FramesReplayed }},
	{earth.EvWorkReassigned, func(n *earth.NodeStats) uint64 { return n.TokensReassigned }},
	{earth.EvRejoined, func(n *earth.NodeStats) uint64 { return n.Rejoins }},
	{earth.EvFenced, func(n *earth.NodeStats) uint64 { return n.MsgsFenced }},
	{earth.EvRecovered, func(n *earth.NodeStats) uint64 { return n.Recovered }},
	{earth.EvFaultInjected, func(n *earth.NodeStats) uint64 { return n.FaultsInjected }},
	{earth.EvRetry, func(n *earth.NodeStats) uint64 { return n.Retries }},
	{earth.EvSyncSignal, func(n *earth.NodeStats) uint64 { return n.Syncs }},
	{earth.EvThreadRun, func(n *earth.NodeStats) uint64 { return n.ThreadsRun }},
}

// checkCounters asserts that every counter of st equals the count of the
// events in evs that define it.
func checkCounters(t *testing.T, st *earth.Stats, evs []earth.Event) {
	t.Helper()
	byKind := make([]uint64, earth.KindCount)
	for _, e := range evs {
		byKind[e.Kind]++
	}
	for _, ce := range counterEvents {
		var n uint64
		for i := range st.Nodes {
			n += ce.count(&st.Nodes[i])
		}
		if n != byKind[ce.kind] {
			t.Errorf("counter of %v events is %d, %d events traced", ce.kind, n, byKind[ce.kind])
		}
	}
}

// TestFaultMatrix runs every cell through checkCell, and each faulted
// row once more with no tracer on each engine through checkUntraced.
// Subtests are named engine/row/coalesce-{off,on}/sanitize={false,true}
// and engine/row/untraced.
func TestFaultMatrix(t *testing.T) {
	done := map[string]cellRun{}
	for _, live := range []bool{false, true} {
		for _, row := range matrixRows {
			for _, coal := range []bool{false, true} {
				for _, san := range []bool{false, true} {
					c := matrixCell{row: row, live: live, coal: coal, san: san}
					t.Run(c.name(), func(t *testing.T) {
						r := c.run(t)
						checkCell(t, c, r, done)
						done[c.name()] = cellRun{st: r.st, res: r.res}
					})
				}
			}
			if row.plan.Enabled() {
				c := matrixCell{row: row, live: live, untraced: true}
				t.Run(c.name(), func(t *testing.T) { checkUntraced(t, c, done) })
			}
		}
	}
}

// checkUntraced runs faulted cell c, which installs no tracer, so that
// every emission point on its plan's paths meets the zero earth.Sink. The
// answer holds as on the traced cell; on simrt, where tracing observes
// and never steers, the stats JSON equals the traced cell's byte for
// byte. A livert cell is built by newLive, whose check ran after Run.
func checkUntraced(t *testing.T, c matrixCell, done map[string]cellRun) {
	t.Helper()
	r := c.run(t)
	checkAnswer(t, c.row.prog, r.res, len(planOutcome(t, c).fired) == 0)
	if c.live {
		return
	}
	traced := c
	traced.untraced = false
	base, ok := done[traced.name()]
	if !ok {
		t.Fatalf("no run of %s to compare with", traced.name())
	}
	got, err := json.Marshal(r.st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(base.st)
	if err != nil {
		t.Fatal(err)
	}
	if d := pin.FirstDiff(got, want); d != "" {
		t.Errorf("untraced stats JSON diverges from the traced cell's at %s", d)
	}
}

// checkAnswer asserts what the matrix program of shape p applied on node
// 0: nothing twice; when the row converges, everything once.
func checkAnswer(t *testing.T, p progShape, res cellResult, converges bool) {
	t.Helper()
	for v, n := range res.hits {
		if n > 1 || converges && n != 1 {
			t.Errorf("leaf %d contributed %d times", v, n)
		}
	}
	for s, seq := range res.seqs {
		if len(slices.Compact(sortedInts(seq))) != len(seq) || res.posts[s] > 1 ||
			converges && (len(seq) != p.burst || res.posts[s] != 1) {
			t.Errorf("spreader %d: puts %v of %d and %d posts applied", s, seq, p.burst, res.posts[s])
		}
	}
	if res.wrong > 0 || converges && res.done != [2]bool{true, true} {
		t.Errorf("%d wrongly fetched words; fan-ins fired: %v", res.wrong, res.done)
	}
}

// outcome is what a cell's plan does to its machine, decided from the
// schedule alone: who crashes, which fences fire and which of them rejoin.
// A fence does not fire on a node crashed by its instant, and a fenced node
// crashed by its heal does not rejoin (a crash applies before a fence or a
// heal of the same instant).
type outcome struct {
	fs      earth.FaultSetup
	crashed []bool
	fired   []faults.Fence // the fences that fire
	fences  []uint64       // per node: fired fences
	rejoins []uint64       // per node: rejoins due
}

func planOutcome(t *testing.T, c matrixCell) outcome {
	t.Helper()
	fs, err := c.config().ResolveFaults()
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.row.prog.nodes
	o := outcome{fs: fs, crashed: make([]bool, nodes), fences: make([]uint64, nodes), rejoins: make([]uint64, nodes)}
	crashBy := func(n int, at sim.Time) bool { return fs.CrashAt != nil && fs.CrashAt[n] >= 0 && fs.CrashAt[n] <= at }
	for n := range o.crashed {
		o.crashed[n] = crashBy(n, sim.Time(1<<62))
	}
	for _, f := range fs.Fences {
		if crashBy(f.Node, f.At) {
			continue
		}
		o.fired = append(o.fired, f)
		o.fences[f.Node]++
		if !crashBy(f.Node, f.Heal) {
			o.rejoins[f.Node]++
		}
	}
	return o
}

// checkCell asserts everything a cell promises about run r. done holds
// the runs of the cells already checked, for the comparisons across cells.
func checkCell(t *testing.T, c matrixCell, r cellRun, done map[string]cellRun) {
	t.Helper()
	o := planOutcome(t, c)
	fs, p := o.fs, c.row.prog
	st, tot := r.st, r.st.Total()
	converges := len(o.fired) == 0
	// The event stream: counts per kind and batch sizes.
	var flushes, full, big int
	byKind := make([]uint64, earth.KindCount)
	for _, e := range r.evs {
		byKind[e.Kind]++
		if e.Kind == earth.EvBatchFlush {
			flushes++
			if e.Wait == 16 {
				full++
			}
			if e.Bytes >= 4096 {
				big++
			}
		}
	}

	res := r.res
	checkAnswer(t, p, res, converges)
	anyOff := slices.Contains(res.off, true)
	if st.Sanitize != nil {
		for _, fd := range st.Sanitize.Findings {
			if fd.Kind == earth.SanOverflow {
				t.Errorf("a sync signal was applied twice: %v", fd)
			}
		}
		if converges && !st.Sanitize.Clean() {
			t.Errorf("sanitizer findings on a converging row:\n%s", st.Sanitize)
		}
	}

	// The plan engaged.
	if c.row.chaos && (tot.FaultsInjected == 0 || byKind[earth.EvTimedOut] == 0 || tot.Retries == 0 ||
		tot.Recovered == 0 || !c.live && tot.DupsDropped == 0) {
		t.Errorf("recovery machinery idle: faults=%d timeouts=%d retries=%d recovered=%d dups dropped=%d",
			tot.FaultsInjected, byKind[earth.EvTimedOut], tot.Retries, tot.Recovered, tot.DupsDropped)
	}
	if slices.Contains(o.crashed, true) && tot.FaultsInjected == 0 {
		t.Error("crash plan injected nothing")
	}
	if c.row.dropChain > 0 && !c.live {
		var longest sim.Time
		for _, e := range r.evs {
			if e.Kind == earth.EvFaultInjected && e.Cause == earth.CauseDrop {
				longest = max(longest, e.Dur)
			}
		}
		if longest < c.row.dropChain {
			t.Errorf("longest run of lost attempts took %v, want at least %v", longest, c.row.dropChain)
		}
	}
	for n := range st.Nodes {
		ns := &st.Nodes[n]
		var lease sim.Time
		if o.crashed[n] || o.fences[n] > 0 {
			lease = fs.Retry.Lease
		}
		if ns.DetectionLatency != lease {
			t.Errorf("node %d: detection latency %v, want %v", n, ns.DetectionLatency, lease)
		}
		if ns.Rejoins != o.rejoins[n] {
			t.Errorf("node %d: fenced %d times, rejoined %d times, want %d rejoins", n, o.fences[n], ns.Rejoins, o.rejoins[n])
		}
	}
	// Every table row whose fences fire has traffic in flight across them, so
	// on simrt some of it must be rejected; a drawn program may have none.
	if tot.WrongVerdicts != uint64(len(o.fired)) || converges && tot.MsgsFenced != 0 ||
		!converges && !c.live && c.row.name != fuzzRow && tot.MsgsFenced == 0 {
		t.Errorf("wrong verdicts=%d fenced messages=%d for %d fences due", tot.WrongVerdicts, tot.MsgsFenced, len(o.fired))
	}
	// Once a node is declared down — crashed, or fenced until it rejoins —
	// its adopter runs and signals its work: beyond the body it was running
	// (downSpans), no thread, handler, signal or send is accounted to the
	// down node. From its crash on, a crashed node declares nobody down
	// and takes nothing over: no replayed frame, re-placed token or wrong
	// verdict. A fenced node never issues a wrong verdict. On simrt, where a
	// fence is one instant, a message its node issued before it is never
	// received after it: the receiver rejects the old epoch. A put's event
	// comes one receive stage after its receipt — under the matrix's EARTH
	// costs copies are free, so that stage is AsyncRecv, batched or not.
	recvStage := c.config().WithDefaults().Costs.AsyncRecv
	down := downSpans(r.evs, fs.CrashAt)
	for _, e := range r.evs {
		switch e.Kind {
		case earth.EvThreadRun, earth.EvHandlerRun, earth.EvSyncSignal,
			earth.EvGetSend, earth.EvPutSend, earth.EvInvokeSend, earth.EvPostSend, earth.EvBatchFlush:
			for _, d := range down[e.Node] {
				// A signal from another node is not the running body's.
				inBody := e.Time <= d.body && (e.Kind != earth.EvSyncSignal || e.Peer == e.Node)
				if e.Time >= d.from && e.Time < d.to && !inBody {
					t.Errorf("%v accounted to node %d at %v, after it was declared down at %v (until %v)",
						e.Kind, e.Node, e.Time, d.from, d.to)
				}
			}
		case earth.EvNodeDown, earth.EvFrameReplayed, earth.EvWorkReassigned, earth.EvPartitionFence:
			if o.crashed[e.Node] && e.Time >= fs.CrashAt[e.Node] {
				t.Errorf("%v accounted to node %d at %v, crashed at %v", e.Kind, e.Node, e.Time, fs.CrashAt[e.Node])
			}
		}
		received := sim.Time(-1) // when a landed message passed the receipt checks
		switch e.Kind {
		case earth.EvPutDeliver:
			received = e.Time - recvStage
		case earth.EvInvokeDeliver, earth.EvTokenDeliver:
			received = e.Time
		}
		for _, f := range o.fired {
			if e.Kind == earth.EvPartitionFence && earth.NodeID(f.Node) == e.Node && e.Time >= f.At {
				t.Errorf("node %d, fenced at %v, issued a wrong verdict at %v", e.Node, f.At, e.Time)
			}
			if received >= 0 && !c.live && earth.NodeID(f.Node) == e.Peer && e.Time-e.Dur < f.At && received >= f.At {
				t.Errorf("%v from node %d issued at %v received at %v, after its fence at %v", e.Kind, e.Peer, e.Time-e.Dur, received, f.At)
			}
		}
	}

	// Coalescing: batches go out only when it is on, and a burst sent off
	// node 0 trips both limits.
	if !c.coal && flushes > 0 || c.coal && anyOff && p.fillsBatches() && (full == 0 || big == 0) {
		t.Errorf("%d batch flushes, %d on the count limit and %d on the byte limit", flushes, full, big)
	}

	checkCounters(t, st, r.evs)

	// Coalescing, another cost model, never changes what a sender's puts
	// deliver: the uncoalesced cell's sequences exactly on a clean plan, the
	// same multisets whenever the row converges.
	off := c
	off.coal = false
	if base, ok := done[off.name()]; ok && c.coal && converges {
		for s, seq := range res.seqs {
			got, want := seq, base.res.seqs[s]
			if c.row.plan.Enabled() {
				got, want = sortedInts(got), sortedInts(want)
			}
			if !slices.Equal(got, want) {
				t.Errorf("spreader %d: coalesced puts %v, uncoalesced %v", s, seq, base.res.seqs[s])
			}
		}
	}

	if c.live {
		return // newLive's leak check ran after Run
	}
	// simrt: a second machine repeats every byte, and a faulted run is never
	// faster than the clean one.
	again := c.run(t)
	sameBytes(t, "second machine", again.sim, r.sim)
	crit := func(r cellRun) string { return critpath.Analyze(r.evs, p.nodes, r.st.Elapsed).Render() }
	if got, want := crit(again), crit(r); got != want {
		t.Errorf("second machine: critpath report diverges\n got: %s\nwant: %s", got, want)
	}
	clean := c
	clean.row = matrixRows[0]
	if base, ok := done[clean.name()]; ok && c.row.chaos && st.Elapsed < base.st.Elapsed {
		t.Errorf("faulted run faster than clean: %v < %v", st.Elapsed, base.st.Elapsed)
	}
	// The sanitizer report carries structure only, so coalescing cannot move
	// it.
	if base, ok := done[off.name()]; ok && c.coal && c.san && converges {
		got, _ := json.Marshal(st.Sanitize)
		want, _ := json.Marshal(base.st.Sanitize)
		if string(got) != string(want) {
			t.Errorf("sanitizer report moved under coalescing\n got: %s\nwant: %s", got, want)
		}
	}
}

// downSpan is a stretch of a node's trace in which nothing may be
// accounted to it: from the node's declaration as down — EvNodeDown for a
// crash, EvPartitionFence for a fence — to the EvRejoined that ends its
// last fence still open, or to the end of the run. body is where the body
// running at instant stop — the crash, or the fence — ends: bodies are
// atomic, so that one completes, and until it ends its events — sends and
// signals of its own node's frames — may post-date the declaration.
type downSpan struct{ from, to, stop, body sim.Time }

// downSpans returns the down spans of every node in trace evs, under crash
// schedule crashAt.
func downSpans(evs []earth.Event, crashAt []sim.Time) map[earth.NodeID][]downSpan {
	const never = sim.Time(1 << 62)
	spans := map[earth.NodeID][]downSpan{}
	type edge struct {
		at   sim.Time
		open int // +1 for a fence, -1 for a rejoin
	}
	edges := map[earth.NodeID][]edge{}
	var crashes []earth.Event
	for _, e := range evs {
		switch e.Kind {
		case earth.EvNodeDown:
			crashes = append(crashes, e)
		case earth.EvPartitionFence:
			edges[e.Peer] = append(edges[e.Peer], edge{e.Time, 1})
		case earth.EvRejoined:
			edges[e.Node] = append(edges[e.Node], edge{e.Time, -1})
		}
	}
	// Fences nest: on livert a heal the host ran late rejoins an earlier
	// fence inside a later one, and the node stays down until the rejoin
	// that closes its last open fence. A crash never ends.
	for x, es := range edges {
		slices.SortStableFunc(es, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
		open := 0
		for _, ed := range es {
			switch {
			case ed.open > 0 && open == 0:
				spans[x] = append(spans[x], downSpan{from: ed.at, to: never, stop: ed.at})
			case ed.open < 0 && open == 1:
				spans[x][len(spans[x])-1].to = ed.at
			}
			open = max(0, open+ed.open)
		}
	}
	for _, e := range crashes {
		spans[e.Peer] = append(spans[e.Peer], downSpan{from: e.Time, to: never, stop: crashAt[e.Peer]})
	}
	for _, e := range evs {
		if e.Kind == earth.EvThreadRun || e.Kind == earth.EvHandlerRun {
			for i := range spans[e.Node] {
				if d := &spans[e.Node][i]; e.Time < d.stop {
					d.body = max(d.body, e.Time+e.Dur)
				}
			}
		}
	}
	return spans
}

// sortedInts returns a sorted copy of s.
func sortedInts(s []int) []int {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}
