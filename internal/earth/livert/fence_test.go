package livert

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// TestPartitionHandOffWaitsForBody holds a body on node 1 across node 1's
// fence, with k handlers, k ready threads and k pooled tokens queued behind
// it. While the body is held the queues stay where they are: node 1 has
// handed nothing over in the fate table and node 0, the only adopter, holds none of the
// work. Once the body returns, the fence is accounted and each item runs
// exactly once, on node 0. In "outlives-window" the partition heals while
// the body is still held: the hand-off still happens once, and the rejoin
// follows it. The fence falls late enough for the body to have started on
// any host; if it had not, the test reports that it proved nothing.
func TestPartitionHandOffWaitsForBody(t *testing.T) {
	const k = 8
	const lease, from = 2 * sim.Millisecond, 20 * sim.Millisecond
	for _, tc := range []struct {
		name     string
		heal     sim.Time
		outlives bool // the body is held past the heal
	}{{"within-window", 40 * sim.Millisecond, false}, {"outlives-window", 26 * sim.Millisecond, true}} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &faults.Plan{Partition: []faults.Partition{{From: from, To: tc.heal, Groups: [2][]int{{0}, {1}}}}}
			runs := &nodeRuns{node: 1}
			rt := New(earth.Config{Nodes: 2, Seed: 1, Faults: plan, Balancer: earth.BalanceNone, Tracer: runs,
				Retry: earth.RetryPolicy{Lease: lease}})
			n0, n1 := rt.nodes[0], rt.nodes[1]
			var mu sync.Mutex
			ranOn := map[string][]earth.NodeID{}
			record := func(kind string, i int) earth.ThreadBody {
				return func(c earth.Ctx) {
					mu.Lock()
					ranOn[fmt.Sprint(kind, i)] = append(ranOn[fmt.Sprint(kind, i)], c.Node())
					mu.Unlock()
				}
			}
			started, release := make(chan struct{}), make(chan struct{})
			var onNode1 bool
			var moved string // what a held body's queues looked like when first found moved
			var released sim.Time
			runChecked(rt, func(c earth.Ctx) {
				c.Invoke(1, 8, func(c earth.Ctx) {
					for i := 0; i < k; i++ {
						c.Token(8, record("token", i))
					}
					onNode1 = c.Node() == 1
					close(started)
					<-release
				})
				if !startedBefore(started, n1.halted.Load) {
					t.Error("node 1 was fenced before its body started: the test proved nothing")
					close(release)
					return
				}
				for i := 0; i < k; i++ {
					c.Post(1, 8, record("handler", i))
					c.Invoke(1, 8, record("ready", i))
				}
				for !n1.halted.Load() {
					time.Sleep(50 * time.Microsecond)
				}
				// Hold the body 2ms past the fence — a hand-off that does not
				// wait for it has long happened by then — or past the heal.
				until := rt.now()
				if tc.outlives {
					until = max(until, tc.heal)
				}
				for until += 2 * sim.Millisecond; rt.now() < until; time.Sleep(100 * time.Microsecond) {
					n1.mu.Lock()
					o, h1, r1, t1 := rt.take.Owner(1), n1.handlers.Len(), n1.ready.Len(), n1.tokens.Len()
					n1.mu.Unlock()
					n0.mu.Lock()
					h0, r0, t0 := n0.handlers.Len(), n0.ready.Len(), n0.tokens.Len()
					n0.mu.Unlock()
					if moved == "" && (o != 1 || h0+r0+t0 != 0 || h1 != k || r1 != k || t1 != k) {
						moved = fmt.Sprintf("node %d holds node 1's queues; node 1 holds %d handlers, %d threads, %d tokens; node 0 holds %d, %d, %d",
							o, h1, r1, t1, h0, r0, t0)
					}
				}
				released = rt.now()
				close(release)
			})
			if !onNode1 || len(runs.fenced) == 0 {
				t.Fatalf("the body ran on node 1: %v; fences traced: %v: the test proved nothing", onNode1, runs.fenced)
			}
			if moved != "" {
				t.Errorf("node 1's queues moved while its body was held: %s", moved)
			}
			for _, kind := range []string{"handler", "ready", "token"} {
				for i := 0; i < k; i++ {
					if got := ranOn[fmt.Sprint(kind, i)]; len(got) != 1 || got[0] != 0 {
						t.Errorf("%s %d ran on nodes %v, want once on the adopter, node 0", kind, i, got)
					}
				}
			}
			if runs.threads != 1 || runs.handlers != 0 {
				t.Errorf("node 1 dispatched %d threads and %d handlers, want only the held body", runs.threads, runs.handlers)
			}
			if len(runs.fenced) != 1 || runs.fenced[0] < released {
				t.Errorf("node 1 handed off at %v, want once, after its body was released at %v", runs.fenced, released)
			}
			if len(runs.rejoined) != 1 || runs.rejoined[0] < runs.fenced[0] {
				t.Errorf("node 1 rejoined at %v, want once, after its hand-off at %v", runs.rejoined, runs.fenced[0])
			}
		})
	}
}

// TestPartitionSecondFenceBeforeFirstRejoin fences node 2 a second time
// before its first fence's rejoin is owed, as when the host runs a fence
// timer ahead of an earlier heal due at the same instant. The first rejoin
// must not end the second fence: node 2 stays halted until the second heal,
// rejoins once per fence, and the run ends.
func TestPartitionSecondFenceBeforeFirstRejoin(t *testing.T) {
	const lease, heal1, heal2 = sim.Millisecond, 40 * sim.Millisecond, 50 * sim.Millisecond
	plan := &faults.Plan{Partition: []faults.Partition{{From: 0, To: heal1, Groups: [2][]int{{0, 1}, {2}}}}}
	runs := &nodeRuns{node: 2}
	rt := New(earth.Config{Nodes: 3, Seed: 1, Faults: plan, Tracer: runs, Retry: earth.RetryPolicy{Lease: lease}})
	n2 := rt.nodes[2]
	traced := func(ts *[]sim.Time) int {
		runs.mu.Lock()
		defer runs.mu.Unlock()
		return len(*ts)
	}
	var early, upAt sim.Time = -1, -1 // when the second fence came, and when node 2 was up during it
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		runChecked(rt, func(c earth.Ctx) {
			for traced(&runs.fenced) == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			if traced(&runs.rejoined) == 0 {
				early = rt.now()
				rt.fenceNode(faults.Fence{Node: 2, At: early, Heal: heal2})
			}
			// Node 2 is read before the clock: the second rejoin, which may
			// clear halted, is owed only from heal2 on.
			for {
				up := !n2.halted.Load()
				if now := rt.now(); now >= heal2 {
					break
				} else if up && upAt < 0 {
					upAt = now
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	}()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return: %d rejoins traced, node 2 halted %v", traced(&runs.rejoined), n2.halted.Load())
	}
	if early < 0 {
		t.Fatalf("node 2 handed off at %v and rejoined at %v before its second fence: the test proved nothing", runs.fenced, runs.rejoined)
	}
	if upAt >= 0 {
		t.Errorf("node 2 was up at %v, inside its second fence (%v to %v)", upAt, early, heal2)
	}
	if len(runs.fenced) != 2 || len(runs.rejoined) != 2 || runs.rejoined[0] < heal1 || runs.rejoined[1] < heal2 {
		t.Errorf("node 2 handed off at %v and rejoined at %v, want twice each, rejoining after %v and %v",
			runs.fenced, runs.rejoined, heal1, heal2)
	}
	if runs.threads+runs.handlers != 0 {
		t.Errorf("node 2 dispatched %d threads and %d handlers, want none", runs.threads, runs.handlers)
	}
}
