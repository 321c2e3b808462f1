package groebner

import (
	"sync/atomic"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
)

// engines builds one runtime of each engine from a configuration.
var engines = []struct {
	name string
	new  func(earth.Config) earth.Runtime
}{
	{"simrt", func(cfg earth.Config) earth.Runtime { return simrt.New(cfg) }},
	{"livert", func(cfg earth.Config) earth.Runtime { return livert.New(cfg) }},
}

// TestHandOffGuard runs the Figure 4 inputs through the paths that hand a
// worker its pairs — central mode, NoOrderedCommit, and central mode with
// worker 1 crashing mid-run, so that its adopter runs its hand-overs — on
// both engines. A worker's start frame is reused for every pair, which is
// sound only while a worker has one fetch outstanding; handOver panics
// otherwise, and here it never does. Every run's basis is the sequential
// one. On simrt, where the crash lands at a fixed share of the clean
// run's makespan, the adopter must have run some hand-overs; on livert the
// crash instant is wall-clock and may fall after the last pair.
func TestHandOffGuard(t *testing.T) {
	var adopted atomic.Int64
	handOverLog = func(w int, on earth.NodeID) {
		if on != earth.NodeID(w) {
			adopted.Add(1)
		}
	}
	defer func() { handOverLog = nil }()
	const nodes = 5
	for _, in := range PaperInputs() {
		seq, err := Buchberger(in.F, in.Opt)
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Reduce()
		sc := Calibrate(seq.Trace, in.PaperSeqMS)
		for _, eng := range engines {
			run := func(cfg earth.Config, pc ParallelConfig) *ParallelResult {
				pc.Opt, pc.StepCost = in.Opt, sc
				res, err := ParallelBuchberger(eng.new(cfg), in.F, pc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			cfg := earth.Config{Nodes: nodes, Seed: 1}
			clean := run(cfg, ParallelConfig{})
			cfg.Faults = &faults.Plan{Crash: []faults.Crash{{Node: 1, At: clean.Stats.Elapsed * 2 / 5}}}
			adopted.Store(0)
			crashed := run(cfg, ParallelConfig{})
			byAdopter := adopted.Load()
			unordered := run(earth.Config{Nodes: nodes, Seed: 1}, ParallelConfig{NoOrderedCommit: true})
			for _, r := range []struct {
				path string
				res  *ParallelResult
			}{{"central", clean}, {"crash", crashed}, {"NoOrderedCommit", unordered}} {
				if !r.res.Basis.Reduce().Equal(want) {
					t.Errorf("%s/%s/%s: reduced basis differs from the sequential one", in.Name, eng.name, r.path)
				}
			}
			if byAdopter == 0 && eng.name == "simrt" {
				t.Errorf("%s/simrt: worker 1 crashed at %v, and no adopter ran a hand-over", in.Name, cfg.Faults.Crash[0].At)
			}
			t.Logf("%s/%s: %d hand-overs run by an adopter", in.Name, eng.name, byAdopter)
		}
	}
}

// TestParallelAllocBudget caps what one processed pair of a k3Input
// completion on five simrt nodes may allocate, everything included — the
// reducer's output, the messages, the run's fixed costs spread over its 27
// pairs — on a machine and a workspace list warm from an earlier run, as
// a sweep's cells are. A start frame and a fetch body bound once per
// worker, and node workspaces kept between runs, brought this from 21.15
// mallocs per pair to 14.93 (15.11 under -race). A frame and a closure
// spawned per pair again (earth.SpawnBody) make it 16.93, which the
// ceiling, 15.5, does not fit.
func TestParallelAllocBudget(t *testing.T) {
	const budget = 15.5
	F, opt := k3Input()
	rt := simrt.New(earth.Config{Nodes: 5, Seed: 1})
	pairs := 0
	perRun := testing.AllocsPerRun(5, func() {
		res, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		pairs = res.PairsProcessed
	})
	if perPair := perRun / float64(pairs); perPair > budget {
		t.Errorf("a completion allocates %.2f times per processed pair (%d pairs), budget %.2f", perPair, pairs, budget)
	} else {
		t.Logf("%.2f mallocs per pair (%d pairs)", perPair, pairs)
	}
}

// TestSanitizedRunClean: a sanitized completion, whose workers spawn one
// start frame per run rather than one frame per pair, breaks no sync
// contract on either engine and tracks the frames it uses.
func TestSanitizedRunClean(t *testing.T) {
	F, opt := k3Input()
	for _, eng := range engines {
		res, err := ParallelBuchberger(eng.new(earth.Config{Nodes: 5, Seed: 1, Sanitize: true}), F, ParallelConfig{Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		san := res.Stats.Sanitize
		if !san.Clean() {
			t.Errorf("%s: sanitizer report %v", eng.name, san)
			continue
		}
		if san.FramesTracked == 0 {
			t.Errorf("%s: a sanitized completion tracked no frame", eng.name)
		}
		t.Logf("%s: %v", eng.name, san)
	}
}
