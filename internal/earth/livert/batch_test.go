package livert

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// TestEnvelopeSize: the handler ring and the private batch move envelopes
// by value; at 80 bytes a third of what that saves went to duffcopy and
// write barriers.
func TestEnvelopeSize(t *testing.T) {
	if sz := unsafe.Sizeof(envelope{}); sz > 64 {
		t.Fatalf("envelope is %d bytes, budget 64", sz)
	}
}

// nodeRuns counts the bodies a traced run dispatched on one node, and
// records when that node was fenced and when it rejoined.
type nodeRuns struct {
	mu                sync.Mutex
	node              earth.NodeID
	threads, handlers int
	fenced, rejoined  []sim.Time
}

func (r *nodeRuns) Event(e earth.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case e.Kind == earth.EvPartitionFence && e.Peer == r.node:
		r.fenced = append(r.fenced, e.Time)
	case e.Node != r.node:
	case e.Kind == earth.EvThreadRun:
		r.threads++
	case e.Kind == earth.EvHandlerRun:
		r.handlers++
	case e.Kind == earth.EvRejoined:
		r.rejoined = append(r.rejoined, e.Time)
	}
}

// startedBefore waits for a held body to close started, and reports false
// if its node went down first: the body then never ran there and the test
// proves nothing. Waiting on would hang, for the node's adopter runs the
// body only after the waiting body — main, on the adopter — returns.
func startedBefore(started <-chan struct{}, down func() bool) bool {
	for !down() {
		select {
		case <-started:
			return true
		case <-time.After(50 * time.Microsecond):
		}
	}
	select {
	case <-started:
		return true
	default:
		return false
	}
}

// TestBatchFailover takes node 1 down — by a crash, and by a fence — while
// its executor provably holds a non-empty private batch: k+1 handlers are
// queued behind a body that holds the executor, the executor takes them
// all under one lock, and the first blocks until the node is down, having
// seen the other k taken and unrun. Each of those must then run exactly
// once, on the adopter, and node 1 must dispatch nothing after the one
// body in flight: one thread and one handler in all, for the whole run (a
// fenced node rejoins steal-only, and BalanceNone leaves nothing to steal).
// The plan's instant is late enough for the blocking handler to have
// started on any host; if it had not, the test reports that it proved
// nothing rather than passing.
func TestBatchFailover(t *testing.T) {
	const k = 20
	cases := []struct {
		name string
		plan *faults.Plan
		down func(n *lnode) bool
	}{
		{"crash", &faults.Plan{Crash: []faults.Crash{{Node: 1, At: 20 * sim.Millisecond}}},
			func(n *lnode) bool { return n.rt.take.Crashed(n.id) }},
		{"fence", &faults.Plan{Partition: []faults.Partition{{From: 20 * sim.Millisecond, To: 40 * sim.Millisecond,
			Groups: [2][]int{{0}, {1}}}}},
			func(n *lnode) bool { return n.halted.Load() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := &nodeRuns{node: 1}
			rt := New(earth.Config{Nodes: 2, Seed: 1, Faults: tc.plan, Balancer: earth.BalanceNone, Tracer: runs,
				Retry: earth.RetryPolicy{Lease: 2 * sim.Millisecond}})
			n1 := rt.nodes[1]
			started, queued := make(chan struct{}), make(chan struct{})
			held := -1         // handlers node 1's executor held, taken and unrun, when it went down
			var ranOn [k][]int // ranOn[i]: the nodes handler i ran on; adopter's executor only, if all is well
			var mu sync.Mutex
			runChecked(rt, func(c earth.Ctx) {
				c.Invoke(1, 8, func(earth.Ctx) { // holds node 1's executor while its queue fills
					close(started)
					<-queued
				})
				if !startedBefore(started, func() bool { return tc.down(n1) }) {
					t.Error("node 1 went down before its body started: the test proved nothing")
					close(queued)
					return
				}
				c.Post(1, 8, func(c earth.Ctx) {
					if c.Node() == 1 {
						held = n1.bend - n1.bnext
					}
					for !tc.down(n1) {
						time.Sleep(50 * time.Microsecond)
					}
				})
				for i := 0; i < k; i++ {
					c.Post(1, 8, func(c earth.Ctx) {
						mu.Lock()
						ranOn[i] = append(ranOn[i], int(c.Node()))
						mu.Unlock()
					})
				}
				close(queued)
			})
			if held != k {
				t.Fatalf("node 1's executor held %d taken-but-unrun handlers when it went down, want %d: the test proved nothing", held, k)
			}
			for i := range ranOn {
				if len(ranOn[i]) != 1 || ranOn[i][0] != 0 {
					t.Errorf("handler %d ran on nodes %v, want once on the adopter, node 0", i, ranOn[i])
				}
			}
			if runs.threads != 1 || runs.handlers != 1 {
				t.Errorf("node 1 dispatched %d threads and %d handlers, want the one that held it and the one in flight",
					runs.threads, runs.handlers)
			}
		})
	}
}
