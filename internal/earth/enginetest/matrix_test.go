package enginetest

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// The fault-conformance matrix: one program, unchanged, on {simrt, livert}
// × {coalescing off, on} × {sanitizer off, on} × the plan rows below. Fault
// plans may reshape timing and placement and, when a partition outlives the
// lease, lose the fenced side's work — never apply an effect twice, never
// hang, and every counter agrees with the events that define it. A row
// whose plan fences nobody must also converge to the fault-free answer.

// leafWork is a leaf's length on every row but the composed ones: long
// enough that each plan's crashes, fences and heals land mid-run on livert,
// where it is slept on the wall clock.
const leafWork = 250 * sim.Microsecond

// matrixRow is one fault plan of the matrix.
type matrixRow struct {
	name, spec string
	nodes      int
	work       sim.Time // leaf length: the run must outlast the plan
	retry      earth.RetryPolicy
	// chaos marks message faults dense enough that every counter of the
	// recovery path must move.
	chaos bool
	// dropChain, when set, is the length some message's run of lost
	// attempts must reach on simrt: what a retry row is there to exercise.
	dropChain sim.Time
}

var matrixRows = []matrixRow{
	{name: "clean", nodes: 4, work: leafWork},
	{name: "chaos", spec: "drop=0.08,dup=0.05,reorder=0.1,window=150µs,seed=13", nodes: 4, work: leafWork, chaos: true},
	{name: "crash", spec: "crash=2@150µs,crash=5@400µs,drop=0.05,dup=0.02,seed=14", nodes: 8, work: leafWork},
	{name: "above-lease", spec: "partition=0.1|2.3@200µs-2500µs,corrupt=0.1,drop=0.05,seed=7", nodes: 4, work: leafWork},
	{name: "below-lease", spec: "partition=0.1|2.3@200µs-600µs,seed=7", nodes: 4, work: leafWork},
	{name: "composed", spec: composedSpec, nodes: 8, work: sim.Millisecond},
	// Under a lease longer than the window nobody fences.
	{name: "composed-lease-20ms", spec: composedSpec, nodes: 8, work: sim.Millisecond,
		retry: earth.RetryPolicy{Lease: 20 * sim.Millisecond}},
	// At drop=0.7 about one message in seventeen loses all eight attempts, so
	// messages land on their final permitted attempt, 25.4ms after issue,
	// while the detector is still mid-lease on crashed node 1.
	{name: "retry-budget-exhausted-in-crash-window", spec: "drop=0.7,crash=1@300µs,seed=5", nodes: 4, work: leafWork,
		retry: earth.RetryPolicy{Lease: 26 * sim.Millisecond}, dropChain: 25400 * sim.Microsecond},
	// Six lost attempts in a row (0.6⁶ ≈ 5 %) wait out a timeout on the
	// 6.4ms backoff cap, 12.6ms in all, while degraded (8× wire time)
	// traffic and a crash pile up behind them.
	{name: "backoff-cap-under-degradation", spec: "drop=0.6,degrade=*@0-2msx8,crash=2@400µs,seed=9", nodes: 5, work: leafWork,
		dropChain: 12600 * sim.Microsecond},
}

// burst is the payload sizes of each spreader's puts to node 0: more
// messages than a coalesced batch holds (16), then two that together reach
// its 4096 bytes.
var burst = []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 2048, 2048}

// cellResult is what the matrix program applied on node 0.
type cellResult struct {
	hits  []int   // per leaf: contributions applied
	notes []int   // per spreader: burst puts applied
	posts []int   // per spreader: posts run
	wrong int     // contributions that carried a wrongly fetched word
	done  [2]bool // the fan-in threads: every leaf in, every spreader in
}

// matrixProg is the matrix's program on a machine of nodes. Spreaders are
// invoked round the machine; each pools four leaf tokens, puts the burst to
// node 0, posts node 0 a note and syncs one fan-in slot. A leaf computes for
// work (and, when sleep is set, sleeps as long), fetches the cell of an
// owner fixed by the leaf — half the leaves through the word Get, half
// through the closure Get — and then its own node's, so that one frame is
// signalled from a remote node and then locally, and puts its contribution
// to node 0 behind the other fan-in slot.
func matrixProg(res *cellResult, nodes int, work sim.Time, sleep bool) earth.ThreadBody {
	const perNode = 4
	spread := 2 * nodes
	*res = cellResult{hits: make([]int, spread*perNode), notes: make([]int, spread), posts: make([]int, spread)}
	cells := make([]int, nodes)
	for n := range cells {
		cells[n] = 1000 + n
	}
	return func(c earth.Ctx) {
		fin := earth.NewFrame(0, 2, 2)
		fin.InitSync(0, len(res.hits), 0, 0)
		fin.InitSync(1, spread, 0, 1)
		fin.SetThread(0, func(earth.Ctx) { res.done[0] = true })
		fin.SetThread(1, func(earth.Ctx) { res.done[1] = true })
		leaf := func(c earth.Ctx, v int) {
			c.Compute(work)
			if sleep {
				time.Sleep(time.Duration(work))
			}
			owner, here := earth.NodeID((3*v+1)%nodes), c.Node()
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
		for s := 0; s < spread; s++ {
			c.Invoke(earth.NodeID(s%nodes), 8, func(c earth.Ctx) {
				for i := 0; i < perNode; i++ {
					c.Token(8, func(c earth.Ctx) { leaf(c, s*perNode+i) })
				}
				for _, n := range burst {
					c.Put(0, n, func() { res.notes[s]++ }, nil, 0)
				}
				c.Post(0, 8, func(earth.Ctx) { res.posts[s]++ })
				c.Sync(fin, 1)
			})
		}
	}
}

// matrixCell is one cell: a row on one engine, wire path and sanitizer
// setting.
type matrixCell struct {
	row             matrixRow
	live, coal, san bool
}

func (c matrixCell) name() string {
	eng := "simrt"
	if c.live {
		eng = "livert"
	}
	return fmt.Sprintf("%s/%s/%s/sanitize=%v", eng, c.row.name, coalName(c.coal), c.san)
}

func (c matrixCell) config(t *testing.T) earth.Config {
	t.Helper()
	cfg := earth.Config{Nodes: c.row.nodes, Seed: 11, Retry: c.row.retry, Sanitize: c.san,
		Coalesce: earth.CoalesceConfig{Enabled: c.coal}}
	if c.row.spec != "" {
		plan, err := faults.Parse(c.row.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	return cfg
}

// cellRun is one run of a cell: its stats and event stream, what the
// program applied, and on simrt the marshalled bytes.
type cellRun struct {
	st  *earth.Stats
	evs []earth.Event
	res cellResult
	sim simOut
}

func (c matrixCell) run(t *testing.T) cellRun {
	t.Helper()
	cfg := c.config(t)
	var r cellRun
	body := matrixProg(&r.res, cfg.Nodes, c.row.work, c.live)
	if !c.live {
		r.sim = simRun(t, cfg, body)
		r.st, r.evs = r.sim.st, r.sim.evs
		return r
	}
	col := &traceCollector{}
	cfg.Tracer = col
	r.st = newLive(cfg).Run(body)
	r.evs = col.evs
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

// TestFaultMatrix runs every cell through checkCell. Subtests are named
// engine/row/coalesce-{off,on}/sanitize={false,true}.
func TestFaultMatrix(t *testing.T) {
	done := map[string]*earth.Stats{}
	for _, live := range []bool{false, true} {
		for _, row := range matrixRows {
			for _, coal := range []bool{false, true} {
				for _, san := range []bool{false, true} {
					c := matrixCell{row: row, live: live, coal: coal, san: san}
					t.Run(c.name(), func(t *testing.T) {
						r := c.run(t)
						checkCell(t, c, r, done)
						done[c.name()] = r.st
					})
				}
			}
		}
	}
}

// checkCell asserts everything a cell promises about run r. done holds
// the stats of the cells already checked, for the comparisons across cells.
func checkCell(t *testing.T, c matrixCell, r cellRun, done map[string]*earth.Stats) {
	t.Helper()
	fs, err := c.config(t).ResolveFaults()
	if err != nil {
		t.Fatal(err)
	}
	st, tot := r.st, r.st.Total()
	fenced := make([]uint64, c.row.nodes) // fences per node
	for _, f := range fs.Fences {
		fenced[f.Node]++
	}
	crashed := func(n int) bool { return fs.CrashAt != nil && fs.CrashAt[n] >= 0 }
	converges := len(fs.Fences) == 0
	// The event stream: counts per kind, batch sizes, the instants crashed
	// nodes were declared down.
	var flushes, full, big int
	byKind := make([]uint64, earth.KindCount)
	downAt := map[earth.NodeID]sim.Time{}
	for _, e := range r.evs {
		byKind[e.Kind]++
		switch e.Kind {
		case earth.EvBatchFlush:
			flushes++
			if e.Wait == 16 {
				full++
			}
			if e.Bytes >= 4096 {
				big++
			}
		case earth.EvNodeDown:
			downAt[e.Peer] = e.Time
		}
	}

	// The answer: nothing applied twice; on a converging row, everything once.
	res := r.res
	for v, n := range res.hits {
		if n > 1 || converges && n != 1 {
			t.Errorf("leaf %d contributed %d times", v, n)
		}
	}
	for s := range res.notes {
		if res.notes[s] > len(burst) || res.posts[s] > 1 || converges && (res.notes[s] != len(burst) || res.posts[s] != 1) {
			t.Errorf("spreader %d: %d of %d puts and %d posts applied", s, res.notes[s], len(burst), res.posts[s])
		}
	}
	if res.wrong > 0 || converges && res.done != [2]bool{true, true} {
		t.Errorf("%d wrongly fetched words; fan-ins fired: %v", res.wrong, res.done)
	}
	if st.Sanitize != nil {
		for _, fd := range st.Sanitize.Findings {
			if fd.Kind == earth.SanOverflow || fd.Kind == earth.SanUnderflow {
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
	if fs.CrashAt != nil && tot.FaultsInjected == 0 {
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
		if crashed(n) || fenced[n] > 0 {
			lease = fs.Retry.Lease
		}
		if ns.DetectionLatency != lease {
			t.Errorf("node %d: detection latency %v, want %v", n, ns.DetectionLatency, lease)
		}
		if crashed(n) && ns.FramesReplayed+ns.TokensReassigned+ns.WrongVerdicts != 0 {
			t.Errorf("node %d crashed but was accounted recovery work: %+v", n, *ns)
		}
		if ns.Rejoins != fenced[n] || fenced[n] > 0 && ns.WrongVerdicts != 0 {
			t.Errorf("node %d: fenced %d times, rejoined %d times, issued %d wrong verdicts", n, fenced[n], ns.Rejoins, ns.WrongVerdicts)
		}
	}
	if tot.WrongVerdicts != uint64(len(fs.Fences)) || converges && tot.MsgsFenced != 0 || !converges && !c.live && tot.MsgsFenced == 0 {
		t.Errorf("wrong verdicts=%d fenced messages=%d for %d scheduled fences", tot.WrongVerdicts, tot.MsgsFenced, len(fs.Fences))
	}
	// Once a crashed node is declared down, its adopter runs and signals its
	// work: nothing more is accounted to the dead node.
	for _, e := range r.evs {
		if at, ok := downAt[e.Node]; ok && e.Time >= at &&
			(e.Kind == earth.EvThreadRun || e.Kind == earth.EvHandlerRun || e.Kind == earth.EvSyncSignal) {
			t.Errorf("%v accounted to node %d at %v, after it was declared down at %v", e.Kind, e.Node, e.Time, at)
		}
	}

	// Coalescing: batches go out if and only if it is on, and a burst trips
	// both limits.
	if c.coal != (flushes > 0) || c.coal && (full == 0 || big == 0) {
		t.Errorf("%d batch flushes, %d on the count limit and %d on the byte limit", flushes, full, big)
	}

	// Every counter equals the count of the events that define it.
	for _, ce := range counterEvents {
		var n uint64
		for i := range st.Nodes {
			n += ce.count(&st.Nodes[i])
		}
		if n != byKind[ce.kind] {
			t.Errorf("counter of %v events is %d, %d events traced", ce.kind, n, byKind[ce.kind])
		}
	}

	if c.live {
		return // newLive's leak check ran after Run
	}
	// simrt: a second machine repeats every byte, and a faulted run is never
	// faster than the clean one.
	again := c.run(t)
	sameBytes(t, "second machine", again.sim, r.sim)
	crit := func(r cellRun) string { return critpath.Analyze(r.evs, c.row.nodes, r.st.Elapsed).Render() }
	if got, want := crit(again), crit(r); got != want {
		t.Errorf("second machine: critpath report diverges\n got: %s\nwant: %s", got, want)
	}
	clean := c
	clean.row = matrixRows[0]
	if base, ok := done[clean.name()]; ok && c.row.chaos && st.Elapsed < base.Elapsed {
		t.Errorf("faulted run faster than clean: %v < %v", st.Elapsed, base.Elapsed)
	}
	// The sanitizer report carries structure only, so coalescing — another
	// cost model — cannot move it.
	off := c
	off.coal = false
	if base, ok := done[off.name()]; ok && c.coal && c.san && converges {
		got, _ := json.Marshal(st.Sanitize)
		want, _ := json.Marshal(base.Sanitize)
		if string(got) != string(want) {
			t.Errorf("sanitizer report moved under coalescing\n got: %s\nwant: %s", got, want)
		}
	}
}
