package eigen

import (
	"math"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/sim"
)

func TestParallelMatchesSequential(t *testing.T) {
	m := Random(80, 9)
	tol := 1e-5
	seq := Bisect(m, tol)
	for _, nodes := range []int{1, 2, 4, 8} {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 11})
		par := ParallelBisect(rt, m, ParallelConfig{Tol: tol})
		if len(par.Eigenvalues) != len(seq.Eigenvalues) {
			t.Fatalf("nodes=%d: %d vs %d eigenvalues", nodes, len(par.Eigenvalues), len(seq.Eigenvalues))
		}
		for i := range seq.Eigenvalues {
			if math.Abs(par.Eigenvalues[i]-seq.Eigenvalues[i]) > 1e-12 {
				t.Fatalf("nodes=%d: lambda[%d] differs: %v vs %v", nodes, i, par.Eigenvalues[i], seq.Eigenvalues[i])
			}
		}
		if par.Tasks != seq.Tasks {
			t.Fatalf("nodes=%d: tasks %d vs %d (tree must be schedule-independent)", nodes, par.Tasks, seq.Tasks)
		}
	}
}

func TestParallelSpeedsUp(t *testing.T) {
	m := Clustered(200, 21, 2)
	tol := 1e-6
	var one, eight sim.Time
	for _, nodes := range []int{1, 8} {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 3})
		par := ParallelBisect(rt, m, ParallelConfig{Tol: tol})
		if nodes == 1 {
			one = par.Stats.Elapsed
		} else {
			eight = par.Stats.Elapsed
		}
	}
	sp := float64(one) / float64(eight)
	if sp < 5 {
		t.Fatalf("8-node speedup only %.2f", sp)
	}
}

func TestArgVariantsAgree(t *testing.T) {
	m := Random(60, 13)
	tol := 1e-5
	rtA := simrt.New(earth.Config{Nodes: 4, Seed: 5})
	a := ParallelBisect(rtA, m, ParallelConfig{Tol: tol, Args: ArgsBlockMove})
	rtB := simrt.New(earth.Config{Nodes: 4, Seed: 5})
	b := ParallelBisect(rtB, m, ParallelConfig{Tol: tol, Args: ArgsIndividual})
	for i := range a.Eigenvalues {
		if a.Eigenvalues[i] != b.Eigenvalues[i] {
			t.Fatalf("variants disagree at %d", i)
		}
	}
	// The paper: runtime difference insignificant. Allow 20%.
	ra := float64(a.Stats.Elapsed)
	rb := float64(b.Stats.Elapsed)
	if rb > 1.2*ra || ra > 1.2*rb {
		t.Fatalf("variant runtimes differ significantly: %v vs %v", a.Stats.Elapsed, b.Stats.Elapsed)
	}
}

func TestParallelOnLiveRuntime(t *testing.T) {
	m := Toeplitz(64, 2, -1)
	tol := 1e-6
	seq := Bisect(m, tol)
	rt := livert.New(earth.Config{Nodes: 4, Seed: 8})
	par := ParallelBisect(rt, m, ParallelConfig{Tol: tol})
	if len(par.Eigenvalues) != len(seq.Eigenvalues) {
		t.Fatalf("%d vs %d eigenvalues", len(par.Eigenvalues), len(seq.Eigenvalues))
	}
	for i := range seq.Eigenvalues {
		if math.Abs(par.Eigenvalues[i]-seq.Eigenvalues[i]) > 1e-12 {
			t.Fatalf("lambda[%d] differs", i)
		}
	}
}

func TestRandomPlacementAblation(t *testing.T) {
	// Random placement (the Multipol strategy) must not change results,
	// only the schedule.
	m := Random(60, 17)
	tol := 1e-5
	rtA := simrt.New(earth.Config{Nodes: 6, Seed: 5, Balancer: earth.BalanceSteal})
	rtB := simrt.New(earth.Config{Nodes: 6, Seed: 5, Balancer: earth.BalanceRandomPlace})
	a := ParallelBisect(rtA, m, ParallelConfig{Tol: tol})
	b := ParallelBisect(rtB, m, ParallelConfig{Tol: tol})
	if len(a.Eigenvalues) != len(b.Eigenvalues) {
		t.Fatal("balancers disagree on results")
	}
	if a.Stats.Total().TokensStolen == 0 {
		t.Fatal("no steals under the stealing balancer")
	}
}

func TestSturmCostCalibration(t *testing.T) {
	if got := SturmCostFor(1000); got != sim.FromMilliseconds(7.82) {
		t.Fatalf("SturmCostFor(1000) = %v, want 7.82ms (Table 1)", got)
	}
}

func TestSeqVirtualTime(t *testing.T) {
	r := &Result{SturmCounts: 10}
	if got := SeqVirtualTime(r, sim.Millisecond); got != 10*sim.Millisecond {
		t.Fatalf("SeqVirtualTime = %v", got)
	}
}

func TestGrainGroupingPreservesResults(t *testing.T) {
	m := Clustered(120, 21, 3)
	tol := 1e-5
	fine := ParallelBisect(simrt.New(earth.Config{Nodes: 4, Seed: 1}), m, ParallelConfig{Tol: tol})
	grouped := ParallelBisect(simrt.New(earth.Config{Nodes: 4, Seed: 1}), m, ParallelConfig{Tol: tol, Grain: 8})
	if len(fine.Eigenvalues) != len(grouped.Eigenvalues) {
		t.Fatalf("%d vs %d eigenvalues", len(fine.Eigenvalues), len(grouped.Eigenvalues))
	}
	for i := range fine.Eigenvalues {
		if fine.Eigenvalues[i] != grouped.Eigenvalues[i] {
			t.Fatalf("lambda[%d] differs", i)
		}
	}
	// Same search nodes visited, fewer spawned tasks (threads).
	if grouped.Tasks != fine.Tasks {
		t.Fatalf("search-node counts differ: %d vs %d", grouped.Tasks, fine.Tasks)
	}
	if grouped.Stats.Total().ThreadsRun >= fine.Stats.Total().ThreadsRun {
		t.Fatalf("grouping did not reduce tasks: %d vs %d threads",
			grouped.Stats.Total().ThreadsRun, fine.Stats.Total().ThreadsRun)
	}
}

func TestGrainGroupingReducesOverheadAtFineGrain(t *testing.T) {
	// Grouping matters exactly where the paper says it does: when the
	// per-task overhead is large relative to the step compute — i.e. on a
	// higher-overhead (message-passing) system. Under EARTH's
	// microsecond overheads ungrouped search runs fine (Figure 2); under
	// MP-300us costs the one-task-per-node version drowns in spawn
	// overhead and grouping wins clearly.
	m := Clustered(120, 21, 4)
	tol := 1e-5
	cost := sim.FromMicroseconds(20)
	mp := earth.MessagePassingCosts(300 * sim.Microsecond)
	fine := ParallelBisect(simrt.New(earth.Config{Nodes: 8, Seed: 1, Costs: mp}), m,
		ParallelConfig{Tol: tol, SturmCost: cost})
	grouped := ParallelBisect(simrt.New(earth.Config{Nodes: 8, Seed: 1, Costs: mp}), m,
		ParallelConfig{Tol: tol, SturmCost: cost, Grain: 21})
	if float64(grouped.Stats.Elapsed) >= 0.7*float64(fine.Stats.Elapsed) {
		t.Fatalf("grouping did not help under MP costs: %v vs %v",
			grouped.Stats.Elapsed, fine.Stats.Elapsed)
	}
	// Under EARTH costs the difference is marginal — the paper's claim
	// that low overhead obviates grouping.
	fineE := ParallelBisect(simrt.New(earth.Config{Nodes: 8, Seed: 1}), m,
		ParallelConfig{Tol: tol, SturmCost: cost})
	groupedE := ParallelBisect(simrt.New(earth.Config{Nodes: 8, Seed: 1}), m,
		ParallelConfig{Tol: tol, SturmCost: cost, Grain: 21})
	ratio := float64(groupedE.Stats.Elapsed) / float64(fineE.Stats.Elapsed)
	if ratio < 0.5 {
		t.Fatalf("EARTH costs should not need grouping; ratio %.2f", ratio)
	}
}
