package eigen

import (
	"fmt"
	"reflect"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
)

// emptyLetters takes every record block off letters, so the next run
// starts as the first run of a process does.
func emptyLetters() {
	for range letters.Listed() {
		letters.Get()
	}
}

// taskAtRest says what is wrong with a record's argument at rest.
func taskAtRest(a *task) error {
	if *a != (task{}) {
		return fmt.Errorf("argument %+v not at rest", *a)
	}
	return nil
}

// TestBisectAllocBudget caps what one task of a Figure 2 cell (the Table 1
// workload on 20 simrt nodes, 893 tasks) may allocate, everything included
// — the run's fixed costs and the 56 leaves' result Puts spread over its
// tasks — on a runtime and a record list warm from an earlier run, in both
// argument variants. Tasks sent as records of the nodes' outboxes instead
// of closures bring block move from 1.09 mallocs per task to 0.15 and
// individual fetches from 5.09 to 1.17, its one frame per task. A closure
// per token again makes 1.15 and 2.17, over the ceilings, 0.5 and 1.5.
func TestBisectAllocBudget(t *testing.T) {
	m, tol := ClusterDiag(1000, 56, 35, 1), 3e-5
	for _, c := range []struct {
		args   ArgVariant
		budget float64
	}{{ArgsBlockMove, 0.5}, {ArgsIndividual, 1.5}} {
		rt := simrt.New(earth.Config{Nodes: 20, Seed: 1})
		cfg := ParallelConfig{Tol: tol, Args: c.args}
		tasks := ParallelBisect(rt, m, cfg).Tasks
		perRun := testing.AllocsPerRun(5, func() { ParallelBisect(rt, m, cfg) })
		if perTask := perRun / float64(tasks); perTask > c.budget {
			t.Errorf("%v: a run allocates %.2f times per task (%d tasks), budget %.2f", c.args, perTask, tasks, c.budget)
		} else {
			t.Logf("%v: %.3f mallocs per task (%d tasks)", c.args, perTask, tasks)
		}
	}
}

// TestPooledBisectWorkspacesPinNothing: after runs of both variants on
// either engine, every task record the runs gave back is at rest — no
// interval, no run state, no handler — and serves its own record, and the
// list, emptied before each run, holds at least a record per task (two
// with individual fetches: the token's and its frame's). A restTask that
// keeps the run's state is caught.
func TestPooledBisectWorkspacesPinNothing(t *testing.T) {
	m, tol := Clustered(120, 12, 4), 1e-6
	emptyLetters()
	defer emptyLetters()
	for _, eng := range []struct {
		name string
		new  func() earth.Runtime
	}{
		{"simrt", func() earth.Runtime { return simrt.New(earth.Config{Nodes: 4, Seed: 1}) }},
		{"livert", func() earth.Runtime { return livert.New(earth.Config{Nodes: 4, Seed: 1}) }},
	} {
		for k, args := range []ArgVariant{ArgsBlockMove, ArgsIndividual} {
			emptyLetters()
			res := ParallelBisect(eng.new(), m, ParallelConfig{Tol: tol, Args: args})
			n, err := enginetest.LettersAtRest(&letters, taskAtRest, restTask)
			if err != nil {
				t.Errorf("%s %v: listed records: %v", eng.name, args, err)
			}
			if n < (k+1)*res.Tasks {
				t.Errorf("%s %v: %d records listed after %d tasks", eng.name, args, n, res.Tasks)
			}
		}
	}

	rest := restTask
	restTask = func(a *task) {
		st := a.st
		rest(a)
		a.st = st
	}
	emptyLetters()
	ParallelBisect(simrt.New(earth.Config{Nodes: 4, Seed: 1}), m, ParallelConfig{Tol: tol})
	restTask = rest
	if _, err := enginetest.LettersAtRest(&letters, taskAtRest, restTask); err == nil {
		t.Error("a restTask that keeps the run's state leaves no listed record flagged")
	}
}

// TestBisectReusedMatchesFresh runs each variant on records that no run
// used, as the first run of a process does, and again on records a run on
// 20 nodes and a crash-faulted fault-sweep run (the crash sweep's
// eigenvalue cell) used: on simrt the results and statistics agree to the
// event, on livert the answers do.
func TestBisectReusedMatchesFresh(t *testing.T) {
	m, tol := Clustered(120, 12, 4), 1e-6
	swept := Clustered(96, 8, 1)
	clean := ParallelBisect(simrt.New(earth.Config{Nodes: 5, Seed: 1}), swept, ParallelConfig{Tol: 1e-5})
	crash := &faults.Plan{Seed: 1, Crash: []faults.Crash{{Node: 2, At: clean.Stats.Elapsed * 37 / 100}}}
	before := []struct {
		name string
		run  func()
	}{
		{"a run on 20 nodes", func() {
			ParallelBisect(simrt.New(earth.Config{Nodes: 20, Seed: 3}), ClusterDiag(400, 20, 35, 2), ParallelConfig{Tol: 3e-5, Args: ArgsIndividual})
		}},
		{"a crash-faulted run", func() {
			res := ParallelBisect(simrt.New(earth.Config{Nodes: 5, Seed: 1, Faults: crash}), swept, ParallelConfig{Tol: 1e-5})
			if tot := res.Stats.Total(); tot.FramesReplayed+tot.TokensReassigned == 0 {
				t.Fatal("the crash-faulted run recovered nothing")
			}
		}},
	}
	for _, args := range []ArgVariant{ArgsBlockMove, ArgsIndividual} {
		cfg := ParallelConfig{Tol: tol, Args: args}
		for _, eng := range []struct {
			name   string
			new    func() earth.Runtime
			answer func(*ParallelResult) any
		}{
			{"simrt", func() earth.Runtime { return simrt.New(earth.Config{Nodes: 4, Seed: 7}) }, func(r *ParallelResult) any { return r }},
			{"livert", func() earth.Runtime { return livert.New(earth.Config{Nodes: 4, Seed: 7}) }, func(r *ParallelResult) any { return r.Result }},
		} {
			emptyLetters()
			want := eng.answer(ParallelBisect(eng.new(), m, cfg))
			for _, b := range before {
				emptyLetters()
				b.run()
				if got := eng.answer(ParallelBisect(eng.new(), m, cfg)); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v after %s: the run differs from one on fresh records", eng.name, args, b.name)
				}
			}
		}
	}
}
