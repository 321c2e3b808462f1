package livert

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
	"earth/internal/sim"
)

// runChecked is Run behind the leak check of enginetest.Checked: goroutines back
// to their count, Quiescent silent.
func runChecked(rt *Runtime, body earth.ThreadBody) *earth.Stats {
	return enginetest.Checked(rt).Run(body)
}

// traceCount is a thread-safe tracer (livert emits concurrently) counting
// the events it receives.
type traceCount struct{ n atomic.Int64 }

func (t *traceCount) Event(earth.Event) { t.n.Add(1) }

func TestRunMainOnNodeZero(t *testing.T) {
	rt := New(earth.Config{Nodes: 4, Seed: 1})
	var ran atomic.Int64
	ran.Store(-1)
	st := runChecked(rt, func(c earth.Ctx) { ran.Store(int64(c.Node())) })
	if ran.Load() != 0 {
		t.Fatalf("main ran on node %d", ran.Load())
	}
	if st.Total().ThreadsRun != 1 {
		t.Fatalf("threads = %d", st.Total().ThreadsRun)
	}
}

func TestTokensAllRunAcrossNodes(t *testing.T) {
	rt := New(earth.Config{Nodes: 4, Seed: 2, Balancer: earth.BalanceSteal})
	var n atomic.Int64
	runChecked(rt, func(c earth.Ctx) {
		for i := 0; i < 100; i++ {
			c.Token(8, func(c earth.Ctx) {
				n.Add(1)
				// A little real work so stealing has time to happen.
				s := 0.0
				for j := 0; j < 10000; j++ {
					s += float64(j)
				}
				_ = s
			})
		}
	})
	if n.Load() != 100 {
		t.Fatalf("ran %d tokens, want 100", n.Load())
	}
}

func TestNestedTokens(t *testing.T) {
	rt := New(earth.Config{Nodes: 8, Seed: 3})
	var count atomic.Int64
	var spawn func(c earth.Ctx, depth int)
	spawn = func(c earth.Ctx, depth int) {
		count.Add(1)
		if depth > 0 {
			for i := 0; i < 2; i++ {
				c.Token(8, func(c earth.Ctx) { spawn(c, depth-1) })
			}
		}
	}
	runChecked(rt, func(c earth.Ctx) { spawn(c, 9) })
	if count.Load() != 1023 {
		t.Fatalf("ran %d tasks, want 1023", count.Load())
	}
}

func TestSyncSlotJoin(t *testing.T) {
	rt := New(earth.Config{Nodes: 4, Seed: 1})
	var joined atomic.Bool
	var workers atomic.Int64
	runChecked(rt, func(c earth.Ctx) {
		f := earth.NewFrame(c.Node(), 2, 1)
		f.InitSync(0, 8, 0, 1)
		f.SetThread(1, func(c earth.Ctx) {
			if workers.Load() != 8 {
				t.Errorf("join before all workers: %d", workers.Load())
			}
			joined.Store(true)
		})
		for i := 0; i < 8; i++ {
			c.Invoke(earth.NodeID(i%4), 0, func(c earth.Ctx) {
				workers.Add(1)
				c.Sync(f, 0)
			})
		}
	})
	if !joined.Load() {
		t.Fatal("join thread never ran")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	rt := New(earth.Config{Nodes: 2, Seed: 1})
	// cell is owned by node 1; only node 1's executor touches it.
	var cell float64
	var got atomic.Value
	runChecked(rt, func(c earth.Ctx) {
		f := earth.NewFrame(0, 2, 2)
		f.InitSync(0, 1, 0, 0)
		f.InitSync(1, 1, 0, 1)
		var back float64
		f.SetThread(0, func(c earth.Ctx) {
			earth.GetSyncF64(c, 1, &cell, &back, f, 1)
		})
		f.SetThread(1, func(c earth.Ctx) { got.Store(back) })
		earth.DataSyncF64(c, 1, 3.75, &cell, f, 0)
	})
	if v, _ := got.Load().(float64); v != 3.75 {
		t.Fatalf("round trip = %v, want 3.75", got.Load())
	}
}

func TestOwnerSerialisation(t *testing.T) {
	// Many nodes Put-increment a counter owned by node 0; because all
	// writes execute on node 0's executor, no increments are lost even
	// without atomics. This is the ownership discipline the engines
	// guarantee (and the race detector verifies).
	rt := New(earth.Config{Nodes: 8, Seed: 1})
	counter := 0
	runChecked(rt, func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, 200, 0, 0)
		f.SetThread(0, func(earth.Ctx) {})
		for i := 0; i < 200; i++ {
			c.Invoke(earth.NodeID(i%8), 0, func(c earth.Ctx) {
				c.Put(0, 8, func() { counter++ }, f, 0)
			})
		}
	})
	if counter != 200 {
		t.Fatalf("counter = %d, want 200 (lost updates)", counter)
	}
}

func TestBalancePolicies(t *testing.T) {
	for _, b := range []earth.Balancer{earth.BalanceRandomPlace, earth.BalanceRoundRobin, earth.BalanceNone} {
		rt := New(earth.Config{Nodes: 4, Seed: 9, Balancer: b})
		var n atomic.Int64
		runChecked(rt, func(c earth.Ctx) {
			for i := 0; i < 40; i++ {
				c.Token(8, func(earth.Ctx) { n.Add(1) })
			}
		})
		if n.Load() != 40 {
			t.Fatalf("balancer %v: ran %d, want 40", b, n.Load())
		}
	}
}

func TestComputeIsNoOp(t *testing.T) {
	rt := New(earth.Config{Nodes: 1, Seed: 1})
	st := runChecked(rt, func(c earth.Ctx) { c.Compute(10 * sim.Second) })
	// 10 virtual seconds must not take 10 real seconds.
	if st.Elapsed > 2*sim.Second {
		t.Fatalf("Compute slept for real: %v", st.Elapsed)
	}
}

// TestRunReusable runs one Runtime again and again. Without stealing,
// node 0 pools every token its main thread places, so its token ring
// grows to 1024 slots in the first Run; a later Run of the same 1000
// tokens then allocates about what a Run of none does (the executors'
// parking leaves a couple of allocations of slack). A Run that dropped
// its queues' storage instead of refilling it would regrow the ring,
// seven allocations, every time.
func TestRunReusable(t *testing.T) {
	rt := New(earth.Config{Nodes: 2, Seed: 1, Balancer: earth.BalanceNone})
	var n atomic.Int64
	tok := func(earth.Ctx) { n.Add(1) }
	run := func(tokens int) func() {
		return func() {
			rt.Run(func(c earth.Ctx) {
				for j := 0; j < tokens; j++ {
					c.Token(0, tok)
				}
			})
		}
	}
	const tokens, slack = 1000, 2
	run(tokens)()
	none := testing.AllocsPerRun(20, run(0))
	n.Store(0)
	full := testing.AllocsPerRun(20, run(tokens))
	if n.Load() != 21*tokens {
		t.Fatalf("21 runs of %d tokens ran %d", tokens, n.Load())
	}
	if full > none+slack {
		t.Fatalf("a Run of %d tokens makes %v allocations, a Run of none %v: queue storage was not kept", tokens, full, none)
	}
}

// TestNodeRandLazySeed: a node's stream is seeded on its first draw, not
// in New, and is the stream eager seeding gave — same seed, continued
// across Runs. BalanceNone keeps the engine's own victim draws out of it.
func TestNodeRandLazySeed(t *testing.T) {
	const nodes, seed, perRun = 3, 7, 2
	rt := New(earth.Config{Nodes: nodes, Seed: seed, Balancer: earth.BalanceNone})
	for _, n := range rt.nodes {
		if n.rng != nil {
			t.Fatalf("node %d seeded in New", n.id)
		}
	}
	got := make([][]int64, nodes) // got[i] is appended to by node i only
	for run := 0; run < 2; run++ {
		runChecked(rt, func(c earth.Ctx) {
			for i := 1; i < nodes; i++ { // node 0 never draws
				c.Invoke(earth.NodeID(i), 0, func(c earth.Ctx) {
					for k := 0; k < perRun; k++ {
						got[c.Node()] = append(got[c.Node()], c.Rand().Int63())
					}
				})
			}
		})
	}
	if rt.nodes[0].rng != nil {
		t.Error("node 0 was seeded without drawing")
	}
	for i := 1; i < nodes; i++ {
		eager := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		for k, v := range got[i] {
			if want := eager.Int63(); v != want {
				t.Errorf("node %d draw %d = %d, want %d", i, k, v, want)
			}
		}
		if len(got[i]) != 2*perRun {
			t.Errorf("node %d drew %d times, want %d", i, len(got[i]), 2*perRun)
		}
	}
}

func TestCtxUseAfterReturnPanics(t *testing.T) {
	rt := New(earth.Config{Nodes: 1, Seed: 1})
	var leaked earth.Ctx
	rt.Run(func(c earth.Ctx) { leaked = c })
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	leaked.Compute(1)
}

// TestGetWordNilDestinationPanics: a word Get with no destination panics at
// issue, as the closure form's store would, instead of running its source
// word as a closure on the owner.
func TestGetWordNilDestinationPanics(t *testing.T) {
	src := 1.5
	var got any
	runChecked(New(earth.Config{Nodes: 2, Seed: 1}), func(c earth.Ctx) {
		defer func() { got = recover() }()
		earth.GetSyncF64(c, 1, &src, nil, nil, 0)
	})
	if got == nil {
		t.Error("GetSyncF64 into nil issued a Get")
	}
}

func TestDeepPipeline(t *testing.T) {
	// A long chain of cross-node continuations exercises quiescence
	// detection: the run must end exactly when the chain does.
	rt := New(earth.Config{Nodes: 3, Seed: 1})
	var hops atomic.Int64
	var step func(c earth.Ctx, k int)
	step = func(c earth.Ctx, k int) {
		hops.Add(1)
		if k > 0 {
			c.Invoke(earth.NodeID(k%3), 8, func(c earth.Ctx) { step(c, k-1) })
		}
	}
	runChecked(rt, func(c earth.Ctx) { step(c, 500) })
	if hops.Load() != 501 {
		t.Fatalf("hops = %d, want 501", hops.Load())
	}
}
