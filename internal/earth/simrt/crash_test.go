package simrt

import (
	"testing"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// crashTokenProg builds a token fan-out whose leaves each add a known
// value into a node-0 accumulator guarded by one sync slot, so the
// fault-free result is precomputable. (The crash contracts both engines
// share are checked once, in enginetest: token convergence by
// TestFaultMatrix's crash rows, frame adoption by TestCrashRecovery.)
func crashTokenProg(total *int, done *bool, leaves int) (earth.ThreadBody, int) {
	want := 0
	for i := 0; i < leaves; i++ {
		want += i
	}
	body := func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, leaves, 0, 0)
		f.SetThread(0, func(earth.Ctx) { *done = true })
		for i := 0; i < leaves; i++ {
			v := i
			c.Token(8, func(c earth.Ctx) {
				c.Compute(20 * sim.Microsecond)
				c.Put(0, 8, func() { *total += v }, f, 0)
			})
		}
	}
	return body, want
}

// TestCrashRecoveryAccounting: detection latency lands on the dead node,
// replay/reassign counters on survivors, and the failure-detector events
// are emitted exactly once per crash.
func TestCrashRecoveryAccounting(t *testing.T) {
	plan := &faults.Plan{Crash: []faults.Crash{{Node: 1, At: 80 * sim.Microsecond}}}
	var tr eventList
	var total int
	var done bool
	body, want := crashTokenProg(&total, &done, 32)
	rt := New(earth.Config{Nodes: 4, Seed: 2, Faults: plan, Tracer: &tr})
	st := rt.Run(body)
	if total != want || !done {
		t.Fatalf("total=%d done=%v, want %d", total, done, want)
	}
	lease := earth.RetryPolicy{}.WithDefaults().Lease
	if got := st.Nodes[1].DetectionLatency; got != lease {
		t.Fatalf("DetectionLatency on dead node = %v, want %v", got, lease)
	}
	for i, n := range st.Nodes {
		if i != 1 && n.DetectionLatency != 0 {
			t.Fatalf("DetectionLatency leaked onto live node %d", i)
		}
	}
	downs := 0
	for _, e := range tr {
		if e.Kind == earth.EvNodeDown {
			downs++
			if e.Peer != 1 || e.Node == 1 {
				t.Fatalf("EvNodeDown attribution: node=%d peer=%d", e.Node, e.Peer)
			}
			if e.Dur != lease {
				t.Fatalf("EvNodeDown lease = %v, want %v", e.Dur, lease)
			}
		}
	}
	if downs != 1 {
		t.Fatalf("EvNodeDown emitted %d times, want 1", downs)
	}
	replays, reassigns := countKind(tr, earth.EvFrameReplayed), countKind(tr, earth.EvWorkReassigned)
	if uint64(replays) != st.Total().FramesReplayed || uint64(reassigns) != st.Total().TokensReassigned {
		t.Fatalf("event/counter mismatch: events %d/%d, stats %d/%d",
			replays, reassigns, st.Total().FramesReplayed, st.Total().TokensReassigned)
	}
	if st.Nodes[1].FramesReplayed != 0 || st.Nodes[1].TokensReassigned != 0 {
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

// eventList is a single-goroutine tracer for simrt tests.
type eventList []earth.Event

func (l *eventList) Event(e earth.Event) { *l = append(*l, e) }

func countKind(l eventList, k earth.EventKind) int {
	n := 0
	for _, e := range l {
		if e.Kind == k {
			n++
		}
	}
	return n
}
