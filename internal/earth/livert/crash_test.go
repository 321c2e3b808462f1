package livert

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// TestCrashReassignsPooledTokens: under BalanceNone nobody steals, so
// tokens pooled on the crashed node can only run if the balancer
// re-places them on survivors. The body that pools them holds node 1's
// executor until the node is dead, and the crash is late enough for that
// body to have started on any host: at 2 ms, and with the body returning at
// once, a loaded host now and then (1 run in 750 under the race detector)
// crashed the node before the body ran and replayed it on the adopter, with
// nothing pooled to reassign.
func TestCrashReassignsPooledTokens(t *testing.T) {
	plan := &faults.Plan{Crash: []faults.Crash{{Node: 1, At: 20 * sim.Millisecond}}}
	rt := New(earth.Config{Nodes: 4, Seed: 2, Faults: plan, Balancer: earth.BalanceNone})
	var total int
	var fin bool
	const tokens = 24
	want := 0
	for i := 0; i < tokens; i++ {
		want += i
	}
	st := runChecked(rt, func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, tokens, 0, 0)
		f.SetThread(0, func(earth.Ctx) { fin = true })
		c.Invoke(1, 8, func(c earth.Ctx) {
			for i := 0; i < tokens; i++ {
				v := i
				c.Token(8, func(c earth.Ctx) {
					time.Sleep(300 * time.Microsecond)
					c.Put(0, 8, func() { total += v }, f, 0)
				})
			}
			for !rt.take.Crashed(1) {
				time.Sleep(50 * time.Microsecond)
			}
		})
	})
	if total != want || !fin {
		t.Fatalf("total=%d fin=%v, want %d", total, fin, want)
	}
	if st.Total().TokensReassigned == 0 {
		t.Fatal("crashed node's pooled tokens were never reassigned")
	}
	if st.Nodes[1].TokensReassigned != 0 || st.Nodes[1].FramesReplayed != 0 {
		t.Fatal("recovery work accounted to the dead node")
	}
}

// TestCrashPlanKillingAllNodesPanics: the engine refuses a plan that
// leaves no survivor to adopt work.
func TestCrashPlanKillingAllNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a plan that kills every node")
		}
	}()
	New(earth.Config{Nodes: 2, Faults: &faults.Plan{Crash: []faults.Crash{
		{Node: 0, At: 0}, {Node: 1, At: sim.Millisecond},
	}}})
}

// TestCrashFailoverDrainsQueuesInOrder crashes node 1 with work in all three
// of its queues and checks how the sole survivor receives it: handlers
// and ready threads oldest first — the order they held on the dead node —
// and pooled tokens pushed oldest first, which a node running its own
// pool newest-first then replays in reverse. Once node 1's body is under
// way nothing is timed: it returns only when the node is marked dead, and
// node 0's main holds its executor until the whole handover has arrived.
// The crash is late enough for the body to have started on any host.
func TestCrashFailoverDrainsQueuesInOrder(t *testing.T) {
	const k = 40 // the queues grow twice while they fill
	plan := &faults.Plan{Crash: []faults.Crash{{Node: 1, At: 20 * sim.Millisecond}}}
	rt := New(earth.Config{Nodes: 2, Seed: 1, Faults: plan, Balancer: earth.BalanceNone})
	var order []string // appended to on node 0's executor only
	record := func(kind string, i int) earth.ThreadBody {
		return func(earth.Ctx) { order = append(order, fmt.Sprint(kind, i)) }
	}
	started, posted := make(chan struct{}), make(chan struct{})
	runChecked(rt, func(c earth.Ctx) {
		c.Invoke(1, 8, func(c earth.Ctx) {
			for i := 0; i < k; i++ {
				c.Invoke(1, 8, record("ready", i))
				c.Token(8, record("token", i))
			}
			close(started)
			<-posted
			for !rt.take.Crashed(1) {
				time.Sleep(50 * time.Microsecond)
			}
		})
		// Once node 1's executor is inside its body, nothing it is sent runs.
		if !startedBefore(started, func() bool { return rt.take.Crashed(1) }) {
			t.Error("node 1 crashed before its body started: the test proved nothing")
			close(posted)
			return
		}
		for i := 0; i < k; i++ {
			c.Post(1, 8, record("handler", i))
		}
		close(posted)
		n0 := rt.nodes[0]
		for arrived := 0; arrived < 3*k; time.Sleep(50 * time.Microsecond) {
			n0.mu.Lock()
			arrived = n0.handlers.Len() + n0.ready.Len() + n0.tokens.Len()
			n0.mu.Unlock()
		}
	})
	var want []string
	for i := 0; i < k; i++ {
		want = append(want, fmt.Sprint("handler", i))
	}
	for i := 0; i < k; i++ {
		want = append(want, fmt.Sprint("ready", i))
	}
	for i := k - 1; i >= 0; i-- {
		want = append(want, fmt.Sprint("token", i))
	}
	if !slices.Equal(order, want) {
		t.Fatalf("adopter ran the dead node's work in order\n%v\nwant\n%v", order, want)
	}
}

// TestCrashHandOffUnderPushes: bodies on nodes 0, 2 and 3 keep posting
// handlers, invoking threads and signalling frames on node 1 while node 1
// crashes and its executor hands its queues over. Each push asks the fate
// table who holds node 1's queues and asks again under that node's lock,
// the lock the hand-over records its adopter under: every item runs
// exactly once, wherever it lands, and the run leaves nothing behind. The
// pushers go on for ten rounds after they see the hand-over.
func TestCrashHandOffUnderPushes(t *testing.T) {
	const rounds, perRound = 1000, 3
	plan := &faults.Plan{Crash: []faults.Crash{{Node: 1, At: 2 * sim.Millisecond}}}
	rt := New(earth.Config{Nodes: 4, Seed: 3, Faults: plan, Balancer: earth.BalanceNone})
	pushers := []earth.NodeID{0, 2, 3}
	var ran [3][rounds * perRound]atomic.Int32
	var adopted atomic.Int32 // items that ran off node 1
	var issued [3]int
	record := func(p, i int) earth.ThreadBody {
		return func(c earth.Ctx) {
			ran[p][i].Add(1)
			if c.Node() != 1 {
				adopted.Add(1)
			}
		}
	}
	var push func(c earth.Ctx, p, round, after int)
	push = func(c earth.Ctx, p, round, after int) {
		i := round * perRound
		c.Post(1, 8, record(p, i))
		c.Invoke(1, 8, record(p, i+1))
		f := earth.NewFrame(1, 1, 1)
		f.InitSync(0, 1, 0, 0)
		f.SetThread(0, record(p, i+2))
		c.Sync(f, 0)
		issued[p] = i + perRound
		if rt.take.Owner(1) != 1 {
			after++
		}
		if after < 10 && round+1 < rounds {
			time.Sleep(20 * time.Microsecond)
			c.Invoke(c.Node(), 8, func(c earth.Ctx) { push(c, p, round+1, after) })
		}
	}
	runChecked(rt, func(c earth.Ctx) {
		for p, x := range pushers {
			c.Invoke(x, 8, func(c earth.Ctx) { push(c, p, 0, 0) })
		}
	})
	for p := range pushers {
		for i := range issued[p] {
			if n := ran[p][i].Load(); n != 1 {
				t.Errorf("pusher %d, item %d ran %d times", p, i, n)
			}
		}
	}
	if rt.take.Owner(1) == 1 || adopted.Load() == 0 {
		t.Errorf("node 1 held by node %d, %d items ran off node 1: the test proved nothing", rt.take.Owner(1), adopted.Load())
	}
}
