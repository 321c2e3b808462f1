package livert

import (
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// TestFaultedRunLive: under real concurrency the fault plan delays,
// duplicates and drops messages with wall-clock penalties; recovery and
// sequence dedup must still deliver every logical message exactly once.
func TestFaultedRunLive(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Drop: 0.15, Dup: 0.15, Reorder: 0.3, Window: 50 * sim.Microsecond}
	rt := New(earth.Config{Nodes: 4, Seed: 2, Faults: plan,
		Retry: earth.RetryPolicy{Timeout: 50 * sim.Microsecond}})
	total := 0
	// Explicit remote invokes: work stealing in livert moves work through
	// shared memory, so tokens alone might never cross the faulted wire.
	st := runChecked(rt, func(c earth.Ctx) {
		for i := 1; i <= 1<<6; i++ {
			v := i
			c.Invoke(earth.NodeID(1+i%3), 8, func(c earth.Ctx) {
				c.Put(0, 8, func() { total += v }, nil, 0)
			})
		}
	})
	if want := (1 << 6) * (1<<6 + 1) / 2; total != want {
		t.Fatalf("faulted sum = %d, want %d", total, want)
	}
	if st.Total().FaultsInjected == 0 {
		t.Error("fault plan never intervened")
	}
}

// TestFaultedSyncFanInLive: every one of N remote syncs routed through
// drop/dup recovery must decrement the slot exactly once — the enabled
// thread fires exactly when all contributions are in.
func TestFaultedSyncFanInLive(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Drop: 0.2, Dup: 0.2}
	rt := New(earth.Config{Nodes: 4, Seed: 1, Faults: plan,
		Retry: earth.RetryPolicy{Timeout: 30 * sim.Microsecond}})
	done := false
	var contributions int
	runChecked(rt, func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, 16, 0, 0)
		f.SetThread(0, func(earth.Ctx) { done = true })
		for i := 0; i < 16; i++ {
			c.Invoke(earth.NodeID(i%4), 8, func(c earth.Ctx) {
				c.Put(0, 8, func() { contributions++ }, f, 0)
			})
		}
	})
	if !done {
		t.Fatal("fan-in thread never fired: a sync signal was lost")
	}
	if contributions != 16 {
		t.Fatalf("contributions = %d, want 16 (dedup failed)", contributions)
	}
}

// TestPauseWindowLive: a paused node sleeps through its window, so the
// run cannot finish before the window closes.
func TestPauseWindowLive(t *testing.T) {
	pause := 20 * time.Millisecond
	plan := &faults.Plan{Pause: []faults.Window{
		{From: 0, To: sim.Time(pause.Nanoseconds()), Node: 0, Factor: 1},
	}}
	rt := New(earth.Config{Nodes: 2, Seed: 1, Faults: plan})
	start := time.Now()
	st := runChecked(rt, func(earth.Ctx) {})
	if wall := time.Since(start); wall < pause/2 {
		t.Errorf("run finished in %v despite a %v pause on node 0", wall, pause)
	}
	if st.Nodes[0].FaultsInjected == 0 {
		t.Error("pause not accounted on node 0")
	}
}
