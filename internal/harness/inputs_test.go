package harness

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/neural"
	"earth/internal/sim"
)

// TestPaperNetsStayPristine is what makes sharing one network per width
// safe: after every NN experiment has run on a four-worker pool — forward
// cells and unit-parallel training cells (Table 3, Figure 8, Ablation D)
// reading the templates and their tables concurrently, training into
// scratch nets — each template still equals a freshly built
// network, weight for weight, its samples nnSamples', and its forward net
// and table a fresh Tabulate over those. CI runs it under -race, where a
// cell writing a weight or the table would also be a reported race.
func TestPaperNetsStayPristine(t *testing.T) {
	cfg := Config{Runs: 1, Nodes: []int{1, 2, 4}, Seed: 1, Workers: 4}
	Table3(cfg)
	Figure7(cfg)
	Figure8(cfg)
	AblationNNTree(cfg)
	AblationNNModes(cfg)
	FaultSweep(cfg, nil)

	seen := map[int]bool{}
	paperNets.m.Range(func(k, v any) bool {
		u := k.(int)
		seen[u] = true
		p := v.(func() *paperNet)()
		fresh := neural.Square(u, 1)
		xs, ts := nnSamples(u, paperSamples)
		if !reflect.DeepEqual(p.weights, fresh) {
			t.Errorf("width %d: the template no longer equals a fresh network", u)
		}
		if !reflect.DeepEqual(p.xs, xs) || !reflect.DeepEqual(p.ts, ts) {
			t.Errorf("width %d: the shared samples no longer equal nnSamples'", u)
		}
		if !reflect.DeepEqual(p.forward, neural.Tabulate(fresh, xs)) {
			t.Errorf("width %d: the forward net or its table no longer equals a fresh Tabulate", u)
		}
		return true
	})
	for _, u := range []int{24, 80, 200, 720} {
		if !seen[u] {
			t.Errorf("no template for width %d: the experiments did not go through paperNetOf", u)
		}
	}
}

// TestEigenInputStaysPristine is what makes sharing one tabulated matrix
// per seed safe: after Table 1, Figure 2 and Ablation B have run on a
// four-worker pool, their cells reading the table concurrently, the memo's
// matrix, table and sequential Result still equal a freshly built copy.
// CI runs it under -race, where a cell writing the table would also be a
// reported race.
func TestEigenInputStaysPristine(t *testing.T) {
	cfg := Config{Runs: 1, Nodes: []int{1, 2, 4}, Seed: 3, Workers: 4}
	Table1(cfg)
	Figure2(cfg)
	AblationEigenPlacement(cfg)

	v, ok := eigenInputs.m.Load(cfg.Seed)
	if !ok {
		t.Fatalf("no eigen input for seed %d: the experiments did not go through eigenInput", cfg.Seed)
	}
	m, tol := EigenWorkload(cfg.Seed)
	tab, seq := eigen.Tabulate(m, tol)
	if got := v.(func() eigenIn)(); !reflect.DeepEqual(got, eigenIn{tab, tol, seq}) {
		t.Error("the shared eigen input no longer equals a freshly built one")
	}
}

// TestTrainOnCopyStartsFromTemplate: whatever the last cell left in its
// scratch net, a unit-parallel training cell trains from the tabulated
// template to the weights, outputs and statistics of a run on a fresh
// network, and a cell that copies the template first gets the initial
// weights. No cell is handed the template's weights, and the template
// stays as built. One cell at a time, every cell gets the scratch net the
// one before it returned, also across two collections (which empty a
// sync.Pool).
func TestTrainOnCopyStartsFromTemplate(t *testing.T) {
	const u = 16
	xs, ts := paperNetOf(u).samples(paperSamples)
	ec := earth.Config{Nodes: 3, Seed: 1}
	cfg := neural.ParallelConfig{Train: true, Tree: true}
	want := neural.Square(u, 1)
	ref := neural.ParallelRun(simrt.New(ec), want, xs, ts, cfg)
	var given *neural.Net
	reused := func(use int, scratch *neural.Net) {
		if given != nil && scratch != given {
			t.Errorf("use %d: the free list did not return the scratch net it was given", use)
		}
		given = scratch
	}
	for i := 0; i < 3; i++ {
		trainOnCopy(u, func(start, scratch *neural.Net) sim.Time {
			if &scratch.W1[0][0] == &paperNetOf(u).weights.W1[0][0] {
				t.Fatal("training cell was handed the shared template's weights")
			}
			reused(i, scratch)
			res := neural.ParallelTrainFrom(simrt.New(ec), start, scratch, xs, ts, cfg)
			if !reflect.DeepEqual(scratch, want) || !reflect.DeepEqual(res, ref) {
				t.Errorf("use %d: training from the template differs from training a fresh network", i)
			}
			scratch.W1[3][5]++
			scratch.B2[0]--
			return 0
		})
		runtime.GC()
		runtime.GC()
		trainOnCopy(u, func(start, scratch *neural.Net) sim.Time {
			reused(i, scratch)
			scratch.CopyFrom(start)
			if !reflect.DeepEqual(scratch, neural.Square(u, 1)) {
				t.Errorf("use %d: the copied scratch net does not start at the initial weights", i)
			}
			scratch.B1[2]++
			return 0
		})
	}
	if !reflect.DeepEqual(paperNetOf(u).weights, neural.Square(u, 1)) {
		t.Error("a training cell wrote the template")
	}
}

// TestMemoComputesOncePerKey: concurrent first use of a key runs compute
// once and every caller gets that one value.
func TestMemoComputesOncePerKey(t *testing.T) {
	var m memo[int, *int]
	var computed atomic.Int32
	got := make([]*int, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = m.get(g%2, func() *int {
				computed.Add(1)
				return new(int)
			})
		}()
	}
	wg.Wait()
	if n := computed.Load(); n != 2 {
		t.Errorf("compute ran %d times for 2 keys", n)
	}
	for g, p := range got {
		if p != got[g%2] {
			t.Errorf("caller %d got a different value than caller %d for the same key", g, g%2)
		}
	}
}
