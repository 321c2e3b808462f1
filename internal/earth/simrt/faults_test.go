package simrt

import (
	"bytes"
	"encoding/json"
	"testing"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

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
