package enginetest

import (
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// The program the partition tests share, the two engines they run it on,
// and the one crash contract TestFaultMatrix's crash rows do not reach: a
// frame homed on the crashing node. (Token convergence under one to three
// crashes is the matrix's converges-tokens row.) Leaves both Compute
// (charging simrt's virtual clock) and sleep (advancing livert's wall
// clock), so the same crash and fence times land mid-run on both engines.

// bothEngines lists the two engine constructors in a fixed order.
var bothEngines = []struct {
	name string
	new  func(earth.Config) earth.Runtime
}{
	{"simrt", func(cfg earth.Config) earth.Runtime { return simrt.New(cfg) }},
	{"livert", func(cfg earth.Config) earth.Runtime { return newLive(cfg) }},
}

// crashProg is a two-level fan-out: invoked spreaders on every node each
// emit tokens whose leaves work for the given time and then contribute a
// known value to a node-0 accumulator behind one fan-in slot.
func crashProg(total *int, done *bool, nodes, spread, perNode int, work sim.Time) (earth.ThreadBody, int) {
	leaves := spread * perNode
	want := 0
	for i := 0; i < leaves; i++ {
		want += i
	}
	body := func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, leaves, 0, 0)
		f.SetThread(0, func(earth.Ctx) { *done = true })
		for s := 0; s < spread; s++ {
			base := s * perNode
			c.Invoke(earth.NodeID(s%nodes), 8, func(c earth.Ctx) {
				for i := 0; i < perNode; i++ {
					v := base + i
					c.Token(8, func(c earth.Ctx) {
						c.Compute(work)
						time.Sleep(time.Duration(work))
						c.Put(0, 8, func() { *total += v }, f, 0)
					})
				}
			})
		}
	}
	return body, want
}

// TestCrashRecovery/adopted-frame: a frame homed on the crashing node
// keeps receiving syncs; its enabled thread must fire on the adopter.
func TestCrashRecovery(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run("adopted-frame/"+eng.name, func(t *testing.T) {
			plan := &faults.Plan{Crash: []faults.Crash{{Node: 2, At: 700 * sim.Microsecond}}}
			var ranOn earth.NodeID = -1
			var ranAt time.Duration // wall time from Run, for livert
			const parts = 12
			start := time.Now()
			eng.new(earth.Config{Nodes: 4, Seed: 3, Faults: plan}).Run(func(c earth.Ctx) {
				f := earth.NewFrame(2, 1, 1)
				f.InitSync(0, parts, 0, 0)
				f.SetThread(0, func(c earth.Ctx) { ranOn, ranAt = c.Node(), time.Since(start) })
				for i := 0; i < parts; i++ {
					c.Invoke(earth.NodeID(i%4), 8, func(c earth.Ctx) {
						c.Compute(500 * sim.Microsecond)
						time.Sleep(500 * time.Microsecond)
						c.Sync(f, 0)
					})
				}
			})
			if ranOn < 0 {
				t.Fatal("fan-in thread never fired")
			}
			if ranOn == 2 {
				// Each node runs its three parts back to back, so the fan-in
				// is enabled no earlier than 1.5 ms: on livert, node 2 was
				// still up then, and its kill timer ran that much late.
				t.Fatalf("fan-in thread ran on the crashed node, %v into the run (crash due at %v)", ranAt, plan.Crash[0].At)
			}
		})
	}
}
