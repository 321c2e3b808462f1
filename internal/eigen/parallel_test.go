package eigen

import (
	"math"
	"reflect"
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

// TestArgVariantsOnLiveRuntime: both argument variants give the
// sequential answer on livert, where a token's record is read by the
// executor that stole it and an individual task's five GETs land in a
// record of the executing node's outbox; run under -race.
func TestArgVariantsOnLiveRuntime(t *testing.T) {
	m := Clustered(120, 12, 4)
	tol := 1e-6
	seq := Bisect(m, tol)
	for _, args := range []ArgVariant{ArgsBlockMove, ArgsIndividual} {
		par := ParallelBisect(livert.New(earth.Config{Nodes: 4, Seed: 8}), m, ParallelConfig{Tol: tol, Args: args})
		if !reflect.DeepEqual(par.Result, *seq) {
			t.Errorf("%v: the livert run's Result differs from Bisect's", args)
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

// TestTabulatedMatchesPlain: a parallel run on a tabulated matrix is the
// plain run — the same task tree, eigenvalues, counts, depths and, on the
// simulator, the same statistics to the event — on every machine size and
// both argument variants, and on livert. A table taken at a looser
// tolerance answers the points it holds and computes the rest, without
// writing them, so it still gives Bisect's exact answer.
func TestTabulatedMatchesPlain(t *testing.T) {
	m := Clustered(120, 12, 4)
	const tol = 1e-6
	tab, seq := Tabulate(m, tol)
	if want := Bisect(m, tol); !reflect.DeepEqual(seq, want) {
		t.Fatal("Tabulate's Result differs from Bisect's")
	}
	for _, nodes := range []int{1, 4, 20} {
		for _, args := range []ArgVariant{ArgsBlockMove, ArgsIndividual} {
			cfg := ParallelConfig{Tol: tol, Args: args}
			plain := ParallelBisect(simrt.New(earth.Config{Nodes: nodes, Seed: 7}), m, cfg)
			tabd := ParallelBisect(simrt.New(earth.Config{Nodes: nodes, Seed: 7}), tab, cfg)
			if !reflect.DeepEqual(tabd, plain) {
				t.Errorf("simrt nodes=%d %v: tabulated run differs: tasks %d vs %d, sturms %d vs %d, elapsed %v vs %v, events %d vs %d",
					nodes, args, tabd.Tasks, plain.Tasks, tabd.SturmCounts, plain.SturmCounts,
					tabd.Stats.Elapsed, plain.Stats.Elapsed, tabd.Stats.Events, plain.Stats.Events)
			}
		}
	}
	plain := ParallelBisect(livert.New(earth.Config{Nodes: 4, Seed: 7}), m, ParallelConfig{Tol: tol})
	tabd := ParallelBisect(livert.New(earth.Config{Nodes: 4, Seed: 7}), tab, ParallelConfig{Tol: tol})
	if !reflect.DeepEqual(tabd.Result, plain.Result) {
		t.Error("livert: tabulated run's Result differs from the plain run's")
	}

	loose, _ := Tabulate(m, 1e-3)
	want := Bisect(m, tol)
	if got := Bisect(loose, tol); !reflect.DeepEqual(got, want) {
		t.Error("Bisect on a looser table differs from Bisect on the plain matrix")
	}
	got := ParallelBisect(simrt.New(earth.Config{Nodes: 4, Seed: 7}), loose, ParallelConfig{Tol: tol})
	if !reflect.DeepEqual(got.Result, *want) {
		t.Error("ParallelBisect on a looser table differs from Bisect on the plain matrix")
	}
	if fresh, _ := Tabulate(m, 1e-3); !reflect.DeepEqual(loose, fresh) {
		t.Error("the misses wrote into the table")
	}
}

// BenchmarkParallelBisect is one Figure 2 cell (the Table 1 workload on 20
// simulated nodes) on the plain matrix and on the tabulated one.
func BenchmarkParallelBisect(b *testing.B) {
	m, tol := ClusterDiag(1000, 56, 35, 1), 3e-5
	tab, _ := Tabulate(m, tol)
	for _, bc := range []struct {
		name string
		m    *SymTridiag
	}{{"plain", m}, {"tabulated", tab}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ParallelBisect(simrt.New(earth.Config{Nodes: 20, Seed: 1}), bc.m, ParallelConfig{Tol: tol})
			}
		})
	}
}
