// Package enginetest runs identical EARTH programs on both engines (the
// discrete-event simulator and the goroutine runtime) and checks they
// compute the same results: the engines must be interchangeable for any
// program written against earth.Ctx.
package enginetest

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/sim"
)

// newLive builds the goroutine engine behind the leak check (quiesce.go):
// every live cell of this package's tables goes through it.
func newLive(cfg earth.Config) earth.Runtime { return Checked(livert.New(cfg)) }

// runtimes builds one of each engine with the same configuration.
func runtimes(nodes int, seed int64) map[string]earth.Runtime {
	cfg := earth.Config{Nodes: nodes, Seed: seed}
	return map[string]earth.Runtime{
		"simrt":  simrt.New(cfg),
		"livert": newLive(cfg),
	}
}

func TestTokenTreeSumBothEngines(t *testing.T) {
	// A token tree computes sum(1..2^d) by splitting ranges; results are
	// accumulated on node 0 via Put (owner-serialised, so no atomics).
	const depth = 6
	for name, rt := range runtimes(5, 3) {
		total := 0
		var split func(c earth.Ctx, lo, hi int)
		split = func(c earth.Ctx, lo, hi int) {
			if hi-lo <= 2 {
				s := 0
				for v := lo; v < hi; v++ {
					s += v
				}
				c.Put(0, 8, func() { total += s }, nil, 0)
				return
			}
			mid := (lo + hi) / 2
			c.Token(16, func(c earth.Ctx) { split(c, lo, mid) })
			c.Token(16, func(c earth.Ctx) { split(c, mid, hi) })
		}
		rt.Run(func(c earth.Ctx) { split(c, 1, 1<<depth+1) })
		want := (1 << depth) * (1<<depth + 1) / 2
		if total != want {
			t.Fatalf("%s: sum = %d, want %d", name, total, want)
		}
	}
}

// TestRoundRobinRestartsEachRun: under BalanceRoundRobin a node deals its
// tokens round the machine from node 0 again in every Run of a runtime.
func TestRoundRobinRestartsEachRun(t *testing.T) {
	cfg := earth.Config{Nodes: 4, Seed: 1, Balancer: earth.BalanceRoundRobin}
	want := []earth.NodeID{0, 1, 2, 3, 0}
	for name, rt := range map[string]earth.Runtime{"simrt": simrt.New(cfg), "livert": newLive(cfg)} {
		for run := 0; run < 2; run++ {
			got := make([]earth.NodeID, len(want))
			rt.Run(func(c earth.Ctx) {
				for i := range got {
					c.Token(0, func(c earth.Ctx) { got[i] = c.Node() })
				}
			})
			if !slices.Equal(got, want) {
				t.Errorf("%s, run %d: tokens ran on %v, want %v", name, run+1, got, want)
			}
		}
	}
}

func TestSyncSlotFanInBothEngines(t *testing.T) {
	for name, rt := range runtimes(4, 5) {
		var got []int
		rt.Run(func(c earth.Ctx) {
			f := earth.NewFrame(0, 1, 1)
			f.InitSync(0, 12, 0, 0)
			f.SetThread(0, func(c earth.Ctx) { got = append(got, -1) })
			for i := 0; i < 12; i++ {
				i := i
				c.Invoke(earth.NodeID(i%4), 8, func(c earth.Ctx) {
					c.Put(0, 8, func() { got = append(got, i) }, f, 0)
				})
			}
		})
		if len(got) != 13 || got[12] != -1 {
			t.Fatalf("%s: join ordering broken: %v", name, got)
		}
		sort.Ints(got[:12])
		for i := 0; i < 12; i++ {
			if got[i] != i {
				t.Fatalf("%s: lost contribution %d: %v", name, i, got)
			}
		}
	}
}

func TestGetPutPipelineBothEngines(t *testing.T) {
	// A value circulates node 0 -> 1 -> 2 -> 0 twice, incremented at each
	// hop; each node owns its own cell and forwards with Put + Invoke.
	for name, rt := range runtimes(3, 7) {
		cells := make([]int, 3)
		final := 0
		rt.Run(func(c earth.Ctx) {
			cells[0] = 100
			var hop func(c earth.Ctx, at, rounds int)
			hop = func(c earth.Ctx, at, rounds int) {
				cells[at]++ // we are the owner of cells[at]
				if rounds == 1 {
					final = cells[at]
					return
				}
				next := (at + 1) % 3
				v := cells[at]
				c.Put(earth.NodeID(next), 8, func() { cells[next] = v }, nil, 0)
				c.Invoke(earth.NodeID(next), 8, func(c earth.Ctx) { hop(c, next, rounds-1) })
			}
			hop(c, 0, 6)
		})
		if final != 106 {
			t.Fatalf("%s: final = %d, want 106", name, final)
		}
	}
}

func TestPostOrderingPerChannelBothEngines(t *testing.T) {
	// Posts from one node to one target are delivered in issue order.
	for name, rt := range runtimes(2, 9) {
		var seq []int
		rt.Run(func(c earth.Ctx) {
			for i := 0; i < 32; i++ {
				i := i
				c.Post(1, 8, func(earth.Ctx) { seq = append(seq, i) })
			}
		})
		for i, v := range seq {
			if v != i {
				t.Fatalf("%s: out-of-order delivery at %d: %v", name, i, seq[:i+1])
			}
		}
		if len(seq) != 32 {
			t.Fatalf("%s: delivered %d of 32", name, len(seq))
		}
	}
}

func TestComputeSemanticsDiffer(t *testing.T) {
	// The one intended divergence: Compute advances virtual time under
	// simrt and is a no-op under livert.
	s := simrt.New(earth.Config{Nodes: 1, Seed: 1})
	stSim := s.Run(func(c earth.Ctx) { c.Compute(3 * sim.Second) })
	if stSim.Elapsed < 3*sim.Second {
		t.Fatalf("simrt elapsed %v, want >= 3s virtual", stSim.Elapsed)
	}
	l := newLive(earth.Config{Nodes: 1, Seed: 1})
	stLive := l.Run(func(c earth.Ctx) { c.Compute(3 * sim.Second) })
	if stLive.Elapsed > sim.Second {
		t.Fatalf("livert elapsed %v wall time for a virtual charge", stLive.Elapsed)
	}
}

func TestHeavyMixedWorkloadBothEngines(t *testing.T) {
	// Tokens + invokes + puts + syncs, all at once; verifies counts only.
	for name, rt := range runtimes(6, 11) {
		var mu sync.Mutex // livert tokens run concurrently on any node
		count := 0
		bump := func() { mu.Lock(); count++; mu.Unlock() }
		rt.Run(func(c earth.Ctx) {
			f := earth.NewFrame(0, 1, 1)
			f.InitSync(0, 40, 0, 0)
			f.SetThread(0, func(c earth.Ctx) { bump() })
			for i := 0; i < 20; i++ {
				c.Token(8, func(c earth.Ctx) {
					bump()
					c.Sync(f, 0)
				})
				c.Invoke(earth.NodeID(i%6), 8, func(c earth.Ctx) {
					bump()
					c.Sync(f, 0)
				})
			}
		})
		if count != 41 {
			t.Fatalf("%s: count = %d, want 41", name, count)
		}
	}
}
