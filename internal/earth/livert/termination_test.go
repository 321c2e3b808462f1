package livert

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"earth/internal/earth"
)

// These tests hold Run to its contract under credit-recovery termination
// detection: it returns only after every body ran, and every body ran once.
// CI runs them under -race -count=10 and at -cpu 1,2,4 — detection is
// schedule-sensitive, and on one core an executor is parked most often.

// TestTerminationRefill: one body issues several chunks of work of every
// kind, so its reserve is refilled from the shared counter mid-body.
func TestTerminationRefill(t *testing.T) {
	const n = 5*creditChunk + 3
	rt := New(earth.Config{Nodes: 4, Seed: 1})
	ran := make([]atomic.Int32, 3*n)
	runChecked(rt, func(c earth.Ctx) {
		for i := 0; i < n; i++ {
			c.Post(earth.NodeID(i%4), 8, func(earth.Ctx) { ran[3*i].Add(1) })
			c.Invoke(earth.NodeID((i+1)%4), 8, func(earth.Ctx) { ran[3*i+1].Add(1) })
			c.Token(8, func(earth.Ctx) { ran[3*i+2].Add(1) })
		}
	})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("body %d ran %d times", i, got)
		}
	}
}

// TestTerminationConsumerReturnsReserve: node 1 only consumes. Every
// handler it finishes adds a unit to its reserve, which it never draws on;
// the run can end only when node 1 gives them back.
func TestTerminationConsumerReturnsReserve(t *testing.T) {
	const n = 3 * creditChunk
	rt := New(earth.Config{Nodes: 2, Seed: 1, Balancer: earth.BalanceNone})
	handled := 0 // node 1's executor only
	runChecked(rt, func(c earth.Ctx) {
		for i := 0; i < n; i++ {
			c.Post(1, 8, func(earth.Ctx) { handled++ })
		}
	})
	if handled != n {
		t.Fatalf("node 1 handled %d of %d", handled, n)
	}
}

// TestTerminationOneNode: nobody to steal from and nobody else to settle.
func TestTerminationOneNode(t *testing.T) {
	rt := New(earth.Config{Nodes: 1, Seed: 1})
	var ran int
	var grow func(c earth.Ctx, depth int)
	grow = func(c earth.Ctx, depth int) {
		ran++
		if depth > 0 {
			c.Token(8, func(c earth.Ctx) { grow(c, depth-1) })
			c.Invoke(0, 8, func(c earth.Ctx) { grow(c, depth-1) })
		}
	}
	runChecked(rt, func(c earth.Ctx) { grow(c, 8) })
	if ran != 1<<9-1 {
		t.Fatalf("ran %d bodies, want %d", ran, 1<<9-1)
	}
}

// TestTerminationRandomTrees runs seeded random fan-out/fan-in trees: every
// tree node is a body of a random kind on a random machine node that
// fans out to its children and signals its parent's frame once they have
// all signalled its own. The root's join thread is the last body of the run.
func TestTerminationRandomTrees(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(5)
		// kids[i] lists tree node i's children; node 0 is the root.
		kids := [][]int{nil}
		for len(kids) < 300 {
			parent := rng.Intn(len(kids))
			kids[parent] = append(kids[parent], len(kids))
			kids = append(kids, nil)
		}
		kind := make([]int, len(kids))
		where := make([]earth.NodeID, len(kids))
		for i := range kids {
			kind[i], where[i] = rng.Intn(3), earth.NodeID(rng.Intn(nodes))
		}
		ran := make([]atomic.Int32, len(kids))
		joined := make([]atomic.Int32, len(kids))
		var body func(i int, up *earth.Frame) earth.ThreadBody
		body = func(i int, up *earth.Frame) earth.ThreadBody {
			return func(c earth.Ctx) {
				ran[i].Add(1)
				join := func(c earth.Ctx) {
					joined[i].Add(1)
					if up != nil {
						c.Sync(up, 0)
					}
				}
				if len(kids[i]) == 0 {
					join(c)
					return
				}
				f := earth.NewFrame(c.Node(), 1, 1)
				f.InitSync(0, len(kids[i]), 0, 0)
				f.SetThread(0, join)
				for _, k := range kids[i] {
					switch kind[k] {
					case 0:
						c.Token(8, body(k, f))
					case 1:
						c.Invoke(where[k], 8, body(k, f))
					default:
						c.Post(where[k], 8, body(k, f))
					}
				}
			}
		}
		runChecked(New(earth.Config{Nodes: nodes, Seed: seed}), body(0, nil))
		for i := range kids {
			if r, j := ran[i].Load(), joined[i].Load(); r != 1 || j != 1 {
				t.Fatalf("seed %d: tree node %d ran %d times and joined %d times", seed, i, r, j)
			}
		}
	}
}

// TestTerminationNoEarlyFinish is the case a unit attached after the push
// gets wrong. The root's first Post finds its executor's reserve empty;
// node 1 runs the handler, is given a unit for it, finds nothing else and
// settles while the root is still inside its body. Had the handler been
// visible before its unit was taken, that settle would take the counter to
// zero — the root item's own unit cancelled by the one node 1 never received
// — and the run would be declared over with the root's remaining Posts
// never run. The root waits for each handler before it posts the next, and
// now and then long enough for node 1 to park, so node 1 settles at every
// state of the root's reserve, the empty one after a chunk included.
func TestTerminationNoEarlyFinish(t *testing.T) {
	const n = 2*creditChunk + 2
	rt := New(earth.Config{Nodes: 2, Seed: 1, Balancer: earth.BalanceNone})
	var handled atomic.Int32
	runChecked(rt, func(c earth.Ctx) {
		for i := int32(0); i < n; i++ {
			c.Post(1, 8, func(earth.Ctx) { handled.Add(1) })
			for wait := time.Now(); handled.Load() != i+1; {
				if rt.finished.Load() || time.Since(wait) > 5*time.Second {
					t.Errorf("run over (finished=%v) with handler %d of %d outstanding", rt.finished.Load(), i+1, n)
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
			if i%creditChunk <= 1 {
				time.Sleep(500 * time.Microsecond) // let node 1 find nothing, settle and park
			}
		}
	})
	if got := handled.Load(); got != n {
		t.Fatalf("%d of %d handlers ran before Run returned", got, n)
	}
}
