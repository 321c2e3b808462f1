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
// worker its pairs — central mode, NoOrderedCommit and DistributedQueues,
// and the two queue modes with worker 1 crashing at 2/5 of the mode's
// clean makespan, so that its adopter spawns its start frame — on both
// engines. A worker's start frame is reused for every pair, which is
// sound only while a worker has one fetch outstanding (central mode) or
// one step pending (distributed mode); handOver panics on a second fetch,
// and here it never does. Every run's basis is the sequential one. On
// simrt, where the crash lands at a fixed share of the clean run's
// makespan, the adopter must have spawned the down worker's start frame;
// on livert the crash instant is wall-clock and may fall after the last
// pair. On livert the distributed mode runs Lazard alone: its wall-clock
// order inflates that mode's work without bound (a Katsura-5 run once
// reduced 131 792 pairs in a minute, against 387 on simrt).
func TestHandOffGuard(t *testing.T) {
	var adopted atomic.Int64
	startLog = func(w int, on earth.NodeID) {
		if on != earth.NodeID(w) {
			adopted.Add(1)
		}
	}
	defer func() { startLog = nil }()
	const nodes = 5
	for _, in := range PaperInputs() {
		seq, err := Buchberger(in.F, in.Opt)
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Reduce()
		sc := Calibrate(seq.Trace, in.PaperSeqMS)
		for _, eng := range engines {
			run := func(path string, cfg earth.Config, pc ParallelConfig) *ParallelResult {
				pc.Opt, pc.StepCost = in.Opt, sc
				res, err := ParallelBuchberger(eng.new(cfg), in.F, pc)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Basis.Reduce().Equal(want) {
					t.Errorf("%s/%s/%s: reduced basis differs from the sequential one", in.Name, eng.name, path)
				}
				return res
			}
			run("NoOrderedCommit", earth.Config{Nodes: nodes, Seed: 1}, ParallelConfig{NoOrderedCommit: true})
			for _, mode := range []struct {
				name string
				pc   ParallelConfig
			}{{"central", ParallelConfig{}}, {"distributed", ParallelConfig{DistributedQueues: true}}} {
				if mode.pc.DistributedQueues && eng.name == "livert" && in.Name != "Lazard" {
					continue
				}
				clean := run(mode.name, earth.Config{Nodes: nodes, Seed: 1}, mode.pc)
				crash := faults.Crash{Node: 1, At: clean.Stats.Elapsed * 2 / 5}
				adopted.Store(0)
				run(mode.name+"/crash", earth.Config{Nodes: nodes, Seed: 1, Faults: &faults.Plan{Crash: []faults.Crash{crash}}}, mode.pc)
				byAdopter := adopted.Load()
				if byAdopter == 0 && eng.name == "simrt" {
					t.Errorf("%s/simrt/%s: worker 1 crashed at %v, and no adopter spawned its start frame", in.Name, mode.name, crash.At)
				}
				t.Logf("%s/%s/%s: %d start frames spawned by an adopter", in.Name, eng.name, mode.name, byAdopter)
			}
		}
	}
}

// TestParallelAllocBudget caps what one processed pair of a k3Input
// completion on five simrt nodes may allocate, everything included — the
// reducer's output, the messages, the run's fixed costs spread over its
// pairs — on a machine and a workspace list warm from an earlier run, as
// a sweep's cells are, in both queue modes. A start frame bound once per
// worker, node workspaces kept between runs and protocol messages sent as
// records of the workspaces' outboxes (earth.Outbox) instead of closures
// bring central mode to 7.48 mallocs per pair (7.67 under -race) and
// distributed mode, which spawns the same start frame for each step of its
// 51 pairs, to 5.12 (5.22). One closure per broadcast again, the only
// message sent as a closure, makes 8.52 and 5.90, over the ceilings, 8.0
// and 5.5.
func TestParallelAllocBudget(t *testing.T) {
	F, opt := k3Input()
	for _, c := range []struct {
		mode   string
		pc     ParallelConfig
		budget float64
	}{
		{"central", ParallelConfig{Opt: opt}, 8.0},
		{"distributed", ParallelConfig{Opt: opt, DistributedQueues: true}, 5.5},
	} {
		rt := simrt.New(earth.Config{Nodes: 5, Seed: 1})
		pairs := 0
		perRun := testing.AllocsPerRun(5, func() {
			res, err := ParallelBuchberger(rt, F, c.pc)
			if err != nil {
				t.Fatal(err)
			}
			pairs = res.PairsProcessed
		})
		if perPair := perRun / float64(pairs); perPair > c.budget {
			t.Errorf("%s: a completion allocates %.2f times per processed pair (%d pairs), budget %.2f", c.mode, perPair, pairs, c.budget)
		} else {
			t.Logf("%s: %.2f mallocs per pair (%d pairs)", c.mode, perPair, pairs)
		}
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
