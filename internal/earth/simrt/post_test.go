package simrt

import (
	"testing"

	"earth/internal/earth"
	"earth/internal/sim"
)

// TestPostRunsDuringLongThread is the defining property of the
// active-message path: a handler posted to a node that is busy with a long
// thread executes at message arrival, not after the thread completes.
func TestPostRunsDuringLongThread(t *testing.T) {
	rt := New(earth.Config{Nodes: 2, Seed: 1})
	var handlerAt, threadEndAt sim.Time
	rt.Run(func(c earth.Ctx) {
		// Node 1 starts a 100ms thread immediately.
		c.Invoke(1, 0, func(c earth.Ctx) {
			c.Compute(100 * sim.Millisecond)
			threadEndAt = c.Now()
		})
		// Slightly later, node 0 posts a handler to node 1.
		c.Compute(sim.Millisecond)
		c.Post(1, 8, func(c earth.Ctx) { handlerAt = c.Now() })
	})
	if handlerAt == 0 || threadEndAt == 0 {
		t.Fatal("handler or thread did not run")
	}
	if handlerAt >= threadEndAt {
		t.Fatalf("handler at %v waited for thread end %v (should run on the SU path)", handlerAt, threadEndAt)
	}
	if handlerAt > 2*sim.Millisecond {
		t.Fatalf("handler delayed to %v, want ~1ms+overheads", handlerAt)
	}
}

// An Invoke body, by contrast, must wait for the execution unit.
func TestInvokeWaitsForLongThread(t *testing.T) {
	rt := New(earth.Config{Nodes: 2, Seed: 1})
	var bodyAt sim.Time
	rt.Run(func(c earth.Ctx) {
		c.Invoke(1, 0, func(c earth.Ctx) { c.Compute(100 * sim.Millisecond) })
		c.Compute(sim.Millisecond)
		c.Invoke(1, 8, func(c earth.Ctx) { bodyAt = c.Now() })
	})
	if bodyAt < 100*sim.Millisecond {
		t.Fatalf("invoke body ran at %v, before the 100ms thread finished", bodyAt)
	}
}

func TestPostHandlerHasWorkingCtx(t *testing.T) {
	rt := New(earth.Config{Nodes: 3, Seed: 1})
	var chain []earth.NodeID
	rt.Run(func(c earth.Ctx) {
		c.Post(1, 8, func(c earth.Ctx) {
			chain = append(chain, c.Node())
			// Handlers can post onward and spawn threads.
			c.Post(2, 8, func(c earth.Ctx) {
				chain = append(chain, c.Node())
				earth.SpawnBody(c, func(c earth.Ctx) {
					chain = append(chain, c.Node())
				})
			})
		})
	})
	want := []earth.NodeID{1, 2, 2}
	if len(chain) != 3 || chain[0] != want[0] || chain[1] != want[1] || chain[2] != want[2] {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
}

func TestPostLocalDelivery(t *testing.T) {
	rt := New(earth.Config{Nodes: 1, Seed: 1})
	ran := false
	st := rt.Run(func(c earth.Ctx) {
		c.Post(0, 8, func(c earth.Ctx) { ran = true })
	})
	if !ran {
		t.Fatal("local post did not run")
	}
	if st.Total().MsgsSent != 0 {
		t.Fatalf("local post sent %d network messages", st.Total().MsgsSent)
	}
}

func TestPostConsumesCPUUnderMPModel(t *testing.T) {
	// Under a message-passing cost model the receive path runs on the
	// application processor: a node bombarded with posts finishes its own
	// compute later.
	run := func(posts int) sim.Time {
		rt := New(earth.Config{Nodes: 2, Seed: 1, Costs: earth.MessagePassingCosts(1000 * sim.Microsecond)})
		var done sim.Time
		rt.Run(func(c earth.Ctx) {
			c.Invoke(1, 0, func(c earth.Ctx) {
				var step func(c earth.Ctx, k int)
				step = func(c earth.Ctx, k int) {
					c.Compute(sim.Millisecond)
					if k > 0 {
						c.Invoke(1, 0, func(c earth.Ctx) { step(c, k-1) })
					} else {
						done = c.Now()
					}
				}
				step(c, 9)
			})
			for i := 0; i < posts; i++ {
				c.Post(1, 8, func(earth.Ctx) {})
			}
		})
		return done
	}
	quiet, noisy := run(0), run(50)
	if noisy <= quiet {
		t.Fatalf("posts under MP model did not consume receiver CPU: %v vs %v", noisy, quiet)
	}
}

func TestHandlerBusyAccounting(t *testing.T) {
	rt := New(earth.Config{Nodes: 2, Seed: 1})
	st := rt.Run(func(c earth.Ctx) {
		for i := 0; i < 10; i++ {
			c.Post(1, 8, func(c earth.Ctx) { c.Compute(sim.Millisecond) })
		}
	})
	if st.Nodes[1].Busy < 10*sim.Millisecond {
		t.Fatalf("handler compute not accounted: busy = %v", st.Nodes[1].Busy)
	}
}
