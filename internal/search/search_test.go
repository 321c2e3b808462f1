package search

import (
	"math"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
)

func engines(nodes int, seed int64) map[string]earth.Runtime {
	cfg := earth.Config{Nodes: nodes, Seed: seed}
	return map[string]earth.Runtime{
		"simrt":  simrt.New(cfg),
		"livert": livert.New(cfg),
	}
}

func TestQueensKnownCounts(t *testing.T) {
	want := map[int]int64{4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352}
	for name, rt := range engines(6, 1) {
		for n, w := range want {
			res := Count(rt, &Queens{N: n})
			if res.Total != w {
				t.Fatalf("%s: queens(%d) = %d, want %d", name, n, res.Total, w)
			}
		}
	}
}

func TestPolymerKnownSAWCounts(t *testing.T) {
	for name, rt := range engines(4, 2) {
		for steps := 1; steps <= 5; steps++ {
			res := Count(rt, &Polymer{Steps: steps})
			if res.Total != KnownSAW3D[steps-1] {
				t.Fatalf("%s: SAW(%d) = %d, want %d", name, steps, res.Total, KnownSAW3D[steps-1])
			}
		}
	}
}

func TestCountVisitedReasonable(t *testing.T) {
	rt := simrt.New(earth.Config{Nodes: 4, Seed: 3})
	res := Count(rt, &Queens{N: 6})
	if res.Visited <= res.Total {
		t.Fatalf("visited %d <= solutions %d", res.Visited, res.Total)
	}
	if res.Stats.Total().ThreadsRun == 0 {
		t.Fatal("no tasks ran")
	}
}

func TestTSPMatchesBruteForce(t *testing.T) {
	for name, rt := range engines(5, 5) {
		for _, n := range []int{5, 7, 8} {
			tsp := RandomTSP(n, int64(n)*13)
			want := tsp.BruteForce()
			res := BranchAndBound(rt, tsp)
			if math.Abs(res.Best-want) > 1e-9 {
				t.Fatalf("%s: TSP(%d) = %v, want %v", name, n, res.Best, want)
			}
			if res.Improvements == 0 {
				t.Fatalf("%s: no incumbent updates recorded", name)
			}
		}
	}
}

func TestTSPParallelSpeedup(t *testing.T) {
	tsp := RandomTSP(10, 11)
	run := func(nodes int) (float64, float64) {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 2})
		res := BranchAndBound(rt, tsp)
		return res.Best, float64(res.Stats.Elapsed)
	}
	b1, t1 := run(1)
	b8, t8 := run(8)
	if math.Abs(b1-b8) > 1e-9 {
		t.Fatalf("optimum differs across machine sizes: %v vs %v", b1, b8)
	}
	if t8 >= t1 {
		t.Fatalf("no speedup: %v vs %v", t8, t1)
	}
}

func TestNewTSPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ragged matrix")
		}
	}()
	NewTSP([][]float64{{0, 1}, {1}})
}

func TestPolymerChildrenAreSelfAvoiding(t *testing.T) {
	p := &Polymer{Steps: 4}
	n := p.Root()
	for depth := 0; depth < 4; depth++ {
		kids := p.Children(n)
		if len(kids) == 0 {
			t.Fatal("walk stuck unexpectedly")
		}
		n = kids[0]
		seen := map[point3]bool{}
		for _, q := range n.path {
			if seen[q] {
				t.Fatalf("self-intersecting walk: %v", n.path)
			}
			seen[q] = true
		}
	}
	// First step has all 6 directions; second has 5 (no immediate return).
	if got := len(p.Children(p.Root())); got != 6 {
		t.Fatalf("root children = %d, want 6", got)
	}
	second := p.Children(p.Children(p.Root())[0])
	if len(second) != 5 {
		t.Fatalf("second-step children = %d, want 5", len(second))
	}
}
