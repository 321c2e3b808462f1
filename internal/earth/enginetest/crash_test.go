package enginetest

import (
	"sync/atomic"
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

// downTrace collects a run's events and notes which nodes have been
// declared down as the events arrive: livert emits while it runs, simrt
// hands its events over when the run is done.
type downTrace struct {
	traceCollector
	declared [8]atomic.Bool
}

func (d *downTrace) Event(e earth.Event) {
	if e.Kind == earth.EvNodeDown {
		d.declared[e.Peer].Store(true)
	}
	d.traceCollector.Event(e)
}

// declaredAt returns when node x was declared down in evs and who adopted
// it, ok false if it never was.
func declaredAt(evs []earth.Event, x earth.NodeID) (at sim.Time, adopter earth.NodeID, ok bool) {
	for _, e := range evs {
		if e.Kind == earth.EvNodeDown && e.Peer == x {
			return e.Time, e.Node, true
		}
	}
	return 0, 0, false
}

// TestChainedCrashInOneLease: node 1 crashes at 500µs and node 2, its ring
// successor, at 900µs, inside node 1's lease; node 1 is declared down at
// 1.5ms, node 2 at 1.9ms. Workers on nodes 0, 3, 4 and 5 signal a fresh
// frame homed on node 1 every 100µs. Node 1's hand-over passes over
// crashed node 2 to node 3, and from then on node 1's frames are node 3's:
// signals sent after it do not wait on node 2 for its own declaration, so
// every signal applied between the two declarations is applied on node 3.
// Each frame's thread runs once, and every counter equals its events.
func TestChainedCrashInOneLease(t *testing.T) {
	const (
		nodes    = 6
		step     = 100 * sim.Microsecond
		simSteps = 30   // 3ms of virtual time, past both declarations
		maxSteps = 2000 // livert steps on until node 2 is declared down
	)
	workers := []earth.NodeID{0, 3, 4, 5}
	plan := spec("crash=1@500µs,crash=2@900µs")
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			live := eng.name == "livert"
			tr := &downTrace{}
			var hits [4][maxSteps]atomic.Int32
			var steps [4]int
			var work func(c earth.Ctx, w, i int)
			work = func(c earth.Ctx, w, i int) {
				c.Compute(step)
				if live {
					time.Sleep(time.Duration(step))
				}
				g := earth.NewFrame(1, 1, 1)
				g.InitSync(0, 1, 0, 0)
				g.SetThread(0, func(earth.Ctx) { hits[w][i].Add(1) })
				c.Sync(g, 0)
				steps[w] = i + 1
				next := i+1 < simSteps
				if live {
					next = i+1 < maxSteps && !tr.declared[2].Load()
				}
				if next {
					c.Invoke(c.Node(), 8, func(c earth.Ctx) { work(c, w, i+1) })
				}
			}
			st := eng.new(earth.Config{Nodes: nodes, Seed: 5, Faults: plan, Sanitize: true, Tracer: tr}).Run(func(c earth.Ctx) {
				for w, x := range workers {
					c.Invoke(x, 8, func(c earth.Ctx) { work(c, w, 0) })
				}
			})
			for w := range workers {
				for i := range steps[w] {
					if n := hits[w][i].Load(); n != 1 {
						t.Errorf("worker %d, step %d: frame thread ran %d times", w, i, n)
					}
				}
			}
			if !st.Sanitize.Clean() {
				t.Errorf("sanitizer findings:\n%s", st.Sanitize)
			}
			checkCounters(t, st, tr.evs)
			down1, adopter, ok1 := declaredAt(tr.evs, 1)
			down2, _, ok2 := declaredAt(tr.evs, 2)
			if !ok1 || !ok2 {
				t.Fatalf("nodes 1 and 2 declared down: %v, %v", ok1, ok2)
			}
			if !live && (adopter != 3 || down1 != 1500*sim.Microsecond || down2 != 1900*sim.Microsecond) {
				t.Errorf("node 1 declared down at %v to node %d, node 2 at %v; want 1.5ms to node 3, and 1.9ms", down1, adopter, down2)
			}
			between := 0
			for _, e := range tr.evs {
				if e.Kind == earth.EvSyncSignal && e.Time > down1 && e.Time < down2 {
					between++
					if e.Node != adopter {
						t.Errorf("signal from node %d applied on node %d at %v, between node 1's declaration to node %d and node 2's", e.Peer, e.Node, e.Time, adopter)
					}
				}
			}
			// Four workers, one signal each per 100µs, over 400µs.
			if !live && between < 12 {
				t.Errorf("%d signals applied between the declarations, want a worker's every step there", between)
			}
		})
	}
}

// TestCrashAdopterSignalsLocally: a body on node 2, node 1's adopter,
// signals a frame homed on node 1 once node 1 has been declared down. The
// frame is node 2's to apply, so the signal takes no message: the run's one
// message is main's invoke of that body.
func TestCrashAdopterSignalsLocally(t *testing.T) {
	plan := spec("crash=1@100µs")
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			live := eng.name == "livert"
			tr := &downTrace{}
			ranOn := earth.NodeID(-1)
			var wait func(c earth.Ctx, f *earth.Frame)
			wait = func(c earth.Ctx, f *earth.Frame) {
				// simrt: past the declaration at 1.1ms; livert: once it is traced.
				if live && !tr.declared[1].Load() || !live && c.Now() < 2*sim.Millisecond {
					c.Compute(100 * sim.Microsecond)
					time.Sleep(100 * time.Microsecond)
					c.Invoke(c.Node(), 8, func(c earth.Ctx) { wait(c, f) })
					return
				}
				c.Sync(f, 0)
			}
			st := eng.new(earth.Config{Nodes: 3, Seed: 1, Faults: plan, Tracer: tr}).Run(func(c earth.Ctx) {
				f := earth.NewFrame(1, 1, 1)
				f.InitSync(0, 1, 0, 0)
				f.SetThread(0, func(c earth.Ctx) { ranOn = c.Node() })
				c.Invoke(2, 8, func(c earth.Ctx) { wait(c, f) })
			})
			if ranOn != 2 {
				t.Errorf("the frame's thread ran on node %d, want 2", ranOn)
			}
			if tot := st.Total(); tot.MsgsSent != 1 || tot.Syncs != 1 {
				t.Errorf("%d messages sent and %d signals applied, want 1 and 1", tot.MsgsSent, tot.Syncs)
			}
		})
	}
}
