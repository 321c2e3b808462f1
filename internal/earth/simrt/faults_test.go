package simrt

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// collector is a minimal deterministic tracer for tests.
type collector struct{ events []earth.Event }

func (c *collector) Event(e earth.Event) { c.events = append(c.events, e) }

// chaosPlan is a hostile plan well above the acceptance threshold: 8%
// drop plus duplication plus reordering.
func chaosPlan() *faults.Plan {
	return &faults.Plan{Seed: 11, Drop: 0.08, Dup: 0.05, Reorder: 0.1, Window: 150 * sim.Microsecond}
}

// treeSum runs the token-tree reduction (tokens, steals, puts, syncs all
// exercised) and returns the accumulated sum plus the run stats.
func treeSum(rt earth.Runtime) (int, *earth.Stats) {
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
	st := rt.Run(func(c earth.Ctx) { split(c, 1, 1<<7+1) })
	return total, st
}

// TestFaultedRunMatchesCleanResult: recovery must deliver every message
// exactly once, so a chaos run computes the fault-free answer — slower,
// with the recovery machinery visibly engaged.
func TestFaultedRunMatchesCleanResult(t *testing.T) {
	wantSum, clean := treeSum(New(earth.Config{Nodes: 5, Seed: 3}))
	if want := (1 << 7) * (1<<7 + 1) / 2; wantSum != want {
		t.Fatalf("clean sum = %d, want %d", wantSum, want)
	}
	got, st := treeSum(New(earth.Config{Nodes: 5, Seed: 3, Faults: chaosPlan()}))
	if got != wantSum {
		t.Fatalf("faulted sum = %d, want %d", got, wantSum)
	}
	if st.Total().FaultsInjected == 0 || st.Total().Retries == 0 || st.Total().Recovered == 0 {
		t.Errorf("recovery machinery idle: faults=%d retries=%d recovered=%d",
			st.Total().FaultsInjected, st.Total().Retries, st.Total().Recovered)
	}
	var dups uint64
	for i := range st.Nodes {
		dups += st.Nodes[i].DupsDropped
	}
	if dups == 0 {
		t.Error("no duplicate was suppressed despite dup injection")
	}
	if st.Elapsed < clean.Elapsed {
		t.Errorf("faulted run faster than clean: %v < %v", st.Elapsed, clean.Elapsed)
	}
}

// TestFaultedRunByteDeterministic: same plan seed, same everything — the
// stats JSON and the full trace-event stream must be byte-identical
// across independent runtimes.
func TestFaultedRunByteDeterministic(t *testing.T) {
	runOnce := func() ([]byte, []earth.Event) {
		col := &collector{}
		cfg := earth.Config{Nodes: 5, Seed: 3, Faults: chaosPlan(), Tracer: col}
		_, st := treeSum(New(cfg))
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b, col.events
	}
	b1, e1 := runOnce()
	b2, e2 := runOnce()
	if !bytes.Equal(b1, b2) {
		t.Errorf("stats JSON diverges:\n%s\nvs\n%s", b1, b2)
	}
	if !slices.Equal(e1, e2) {
		t.Error("trace event streams diverge between identical chaos runs")
	}
	// The recovery protocol must be visible in the trace.
	seen := map[earth.EventKind]bool{}
	for _, e := range e1 {
		seen[e.Kind] = true
	}
	for _, k := range []earth.EventKind{
		earth.EvFaultInjected, earth.EvTimedOut, earth.EvRetry, earth.EvRecovered,
	} {
		if !seen[k] {
			t.Errorf("no %v event in the chaos trace", k)
		}
	}
}

// TestEmptyPlanIsCleanRun: a disabled plan must leave the simulation
// byte-identical to no plan at all.
func TestEmptyPlanIsCleanRun(t *testing.T) {
	_, base := treeSum(New(earth.Config{Nodes: 4, Seed: 9}))
	_, empty := treeSum(New(earth.Config{Nodes: 4, Seed: 9, Faults: &faults.Plan{}}))
	bb, _ := json.Marshal(base)
	eb, _ := json.Marshal(empty)
	if !bytes.Equal(bb, eb) {
		t.Errorf("empty plan perturbed the run:\n%s\nvs\n%s", bb, eb)
	}
}

// TestPauseWindowStallsNode: a paused node executes nothing until its
// window closes; messages queue behind the pause.
func TestPauseWindowStallsNode(t *testing.T) {
	prog := func(c earth.Ctx) {
		c.Invoke(1, 8, func(c earth.Ctx) { c.Compute(10 * sim.Microsecond) })
	}
	clean := New(earth.Config{Nodes: 2, Seed: 1}).Run(prog)
	if clean.Elapsed >= sim.Millisecond {
		t.Fatalf("clean run unexpectedly slow: %v", clean.Elapsed)
	}
	plan := &faults.Plan{Pause: []faults.Window{{From: 0, To: sim.Millisecond, Node: 1, Factor: 1}}}
	st := New(earth.Config{Nodes: 2, Seed: 1, Faults: plan}).Run(prog)
	if st.Elapsed < sim.Millisecond {
		t.Errorf("paused run finished at %v, before the window closed", st.Elapsed)
	}
	if st.Nodes[1].FaultsInjected == 0 {
		t.Error("pause not accounted on the stalled node")
	}
}

// TestDegradeWindowSlowsWire: a link-degradation window stretches
// transfer times through the manna machine.
func TestDegradeWindowSlowsWire(t *testing.T) {
	prog := func(c earth.Ctx) {
		c.Put(1, 64<<10, func() {}, nil, 0)
	}
	clean := New(earth.Config{Nodes: 2, Seed: 1}).Run(prog)
	plan := &faults.Plan{Degrade: []faults.Window{
		{From: 0, To: sim.Second, Node: -1, Factor: 8},
	}}
	slow := New(earth.Config{Nodes: 2, Seed: 1, Faults: plan}).Run(prog)
	// 64 KB at 50 MB/s is ~1.3 ms of serialisation; an 8x degradation
	// must dominate the elapsed time.
	if slow.Elapsed < 4*clean.Elapsed {
		t.Errorf("degraded run %v not clearly slower than clean %v", slow.Elapsed, clean.Elapsed)
	}
}
