package livert

import (
	"sync/atomic"
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// TestSecondRunSeesNothingOfTheFirst runs one runtime twice under a plan
// that arms every kind of timer — deliverAfter's for delayed, duplicated
// and retried messages, and tracked ones for a crash and a fence scheduled
// long after the program is done. The first Run must stop or wait out all
// of them (runChecked's leak check says so right after it), and then
// nothing of it may happen during or after the second: no body of the
// first run runs again, and the second run's crash and fence, as far off
// as the first's, do not fire early.
func TestSecondRunSeesNothingOfTheFirst(t *testing.T) {
	plan := &faults.Plan{Seed: 3, Drop: 0.1, Dup: 0.2, Reorder: 0.3, Window: 100 * sim.Microsecond,
		Crash: []faults.Crash{{Node: 3, At: 10 * sim.Second}},
		Partition: []faults.Partition{{From: 20 * sim.Second, To: 40 * sim.Second,
			Groups: [2][]int{{0, 1, 3}, {2}}}}}
	rt := New(earth.Config{Nodes: 4, Seed: 1, Faults: plan, Tracer: &traceCount{}})
	const msgs = 64
	var ran [2]atomic.Int64
	prog := func(run int) earth.ThreadBody {
		return func(c earth.Ctx) {
			for i := 0; i < msgs; i++ {
				c.Invoke(earth.NodeID(1+i%3), 8, func(c earth.Ctx) {
					c.Put(0, 8, func() { ran[run].Add(1) }, nil, 0)
				})
			}
		}
	}
	st := runChecked(rt, prog(0))
	if ran[0].Load() != msgs || st.Total().FaultsInjected == 0 {
		t.Fatalf("first run: %d of %d puts, %d faults injected", ran[0].Load(), msgs, st.Total().FaultsInjected)
	}
	st = runChecked(rt, prog(1))
	time.Sleep(2 * time.Millisecond) // longer than a reorder hold-back or a duplicate's trail
	if a, b := ran[0].Load(), ran[1].Load(); a != msgs || b != msgs {
		t.Errorf("after the second run the first run's puts number %d and the second's %d, want %d each", a, b, msgs)
	}
	if tot := st.Total(); tot.WrongVerdicts != 0 || tot.FramesReplayed != 0 || tot.TokensReassigned != 0 || tot.DetectionLatency != 0 {
		t.Errorf("second run saw a failover scheduled seconds after its end: %+v", tot)
	}
	if err := rt.Quiescent(); err != nil {
		t.Error(err)
	}
}
