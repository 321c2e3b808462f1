package livert

import (
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// TestCrashReassignsPooledTokens: under BalanceNone nobody steals, so
// tokens pooled on the crashed node can only run if the balancer
// re-places them on survivors.
func TestCrashReassignsPooledTokens(t *testing.T) {
	plan := &faults.Plan{Crash: []faults.Crash{{Node: 1, At: 2 * sim.Millisecond}}}
	rt := New(earth.Config{Nodes: 4, Seed: 2, Faults: plan, Balancer: earth.BalanceNone})
	var total int
	var fin bool
	const tokens = 24
	want := 0
	for i := 0; i < tokens; i++ {
		want += i
	}
	st := rt.Run(func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, tokens, 0, 0)
		f.SetThread(0, func(earth.Ctx) { fin = true })
		c.Invoke(1, 8, func(c earth.Ctx) {
			for i := 0; i < tokens; i++ {
				v := i
				c.Token(8, func(c earth.Ctx) {
					time.Sleep(300 * time.Microsecond)
					c.Put(0, 8, func() { total += v }, f, 0)
				})
			}
		})
	})
	if total != want || !fin {
		t.Fatalf("total=%d fin=%v, want %d", total, fin, want)
	}
	if st.Total().TokensReassigned == 0 {
		t.Fatal("crashed node's pooled tokens were never reassigned")
	}
	if st.Nodes[1].TokensReassigned != 0 || st.Nodes[1].FramesReplayed != 0 {
		t.Fatal("recovery work accounted to the dead node")
	}
}

// TestCrashPlanKillingAllNodesPanics: the engine refuses a plan that
// leaves no survivor to adopt work.
func TestCrashPlanKillingAllNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a plan that kills every node")
		}
	}()
	New(earth.Config{Nodes: 2, Faults: &faults.Plan{Crash: []faults.Crash{
		{Node: 0, At: 0}, {Node: 1, At: sim.Millisecond},
	}}})
}
