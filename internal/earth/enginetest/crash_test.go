package enginetest

import (
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// Crash-recovery contracts on both engines, beyond TestFaultMatrix's crash
// rows: several crashes in turn, and a frame homed on the crashing node.
//
// Leaves both Compute (charging simrt's virtual clock) and sleep
// (advancing livert's wall clock), so the same crash times land mid-run
// on both engines.

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

// crashRecoveryCases are the engine-level crash contracts, each checked
// on both engines.
var crashRecoveryCases = []struct {
	name string
	run  func(t *testing.T, mk func(earth.Config) earth.Runtime)
}{
	// Killing workers mid-run must not lose any token: the run converges
	// to the fault-free sum, the crash is accounted as a fault, and the
	// detection latency lands on the dead node. Node 0 (home of the
	// accumulator frame and the main thread) always survives.
	{"converges-tokens", func(t *testing.T, mk func(earth.Config) earth.Runtime) {
		for _, k := range []int{1, 2, 3} {
			plan := &faults.Plan{Seed: 7}
			for i := 0; i < k; i++ {
				plan.Crash = append(plan.Crash, faults.Crash{Node: 1 + i, At: sim.Time(1000+500*i) * sim.Microsecond})
			}
			var total int
			var done bool
			body, want := crashProg(&total, &done, 5, 10, 4, 500*sim.Microsecond)
			st := mk(earth.Config{Nodes: 5, Seed: 1, Faults: plan}).Run(body)
			if total != want || !done {
				t.Fatalf("k=%d: total=%d done=%v, want %d", k, total, done, want)
			}
			if st.Total().FaultsInjected == 0 {
				t.Fatalf("k=%d: no faults recorded for a crash plan", k)
			}
			lease := earth.RetryPolicy{}.WithDefaults().Lease
			if got := st.Nodes[1].DetectionLatency; got != lease {
				t.Fatalf("k=%d: DetectionLatency on dead node = %v, want %v", k, got, lease)
			}
		}
	}},
	// A frame homed on the crashing node keeps receiving syncs; its
	// enabled thread must fire on the adopter.
	{"adopted-frame", func(t *testing.T, mk func(earth.Config) earth.Runtime) {
		plan := &faults.Plan{Crash: []faults.Crash{{Node: 2, At: 700 * sim.Microsecond}}}
		var ranOn earth.NodeID = -1
		const parts = 12
		mk(earth.Config{Nodes: 4, Seed: 3, Faults: plan}).Run(func(c earth.Ctx) {
			f := earth.NewFrame(2, 1, 1)
			f.InitSync(0, parts, 0, 0)
			f.SetThread(0, func(c earth.Ctx) { ranOn = c.Node() })
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
			t.Fatal("fan-in thread ran on the crashed node")
		}
	}},
}

func TestCrashRecovery(t *testing.T) {
	for _, cse := range crashRecoveryCases {
		for _, eng := range bothEngines {
			t.Run(cse.name+"/"+eng.name, func(t *testing.T) { cse.run(t, eng.new) })
		}
	}
}
