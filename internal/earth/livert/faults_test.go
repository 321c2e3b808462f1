package livert

import (
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

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
