package enginetest

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// TestPartitionSecondFenceAdopter: sequential partitions may fence the
// same node twice. Node 1 is fenced alone by the first window and again,
// together with its ring successors 2, 3 and 4, by the second. At its
// second fence the adopter must be chosen against the fence instant that
// fired — when 2, 3 and 4 are fencing too — not the node's first one:
// node 5 adopts all four, on both engines, whatever order livert's
// same-instant fence timers run in.
func TestPartitionSecondFenceAdopter(t *testing.T) {
	const nodes = 8
	plan, err := faults.Parse("partition=0.2.3.4.5.6.7|1@200µs-1700µs,partition=0.5.6.7|1.2.3.4@16ms-17500µs")
	if err != nil {
		t.Fatal(err)
	}
	// 144 leaves of 1ms on 8 nodes keep either engine busy past the second
	// heal (18ms at the least), so every fence and rejoin lands mid-run. The
	// windows sit 14ms apart so that livert's wall-clock timers fire in
	// window order even on a heavily loaded host.
	for _, eng := range bothEngines {
		var total int
		var done bool
		body, _ := crashProg(&total, &done, nodes, nodes*2, 9, sim.Millisecond)
		st := eng.new(earth.Config{Nodes: nodes, Seed: 11, Faults: plan}).Run(body)
		var verdicts, rejoins [nodes]uint64
		for i, ns := range st.Nodes {
			verdicts[i], rejoins[i] = ns.WrongVerdicts, ns.Rejoins
		}
		// Window 1: node 2 adopts node 1. Window 2: node 5 adopts 1, 2, 3 and 4.
		if want := [nodes]uint64{2: 1, 5: 4}; verdicts != want {
			t.Errorf("%s: wrong verdicts per adopter = %v, want %v", eng.name, verdicts, want)
		}
		if want := [nodes]uint64{1: 2, 2: 1, 3: 1, 4: 1}; rejoins != want {
			t.Errorf("%s: rejoins per node = %v, want %v", eng.name, rejoins, want)
		}
	}
}

// composedSpec is the first cell of the all-at-once axis (ROADMAP 1(c)):
// every message fault class, a crash and a partition outliving the
// default lease in one plan, on 8 nodes. The crash of node 3 and the
// fences of nodes 6 and 7 fall on the same instant, 2ms.
const composedSpec = "drop=0.02,dup=0.02,reorder=0.05,corrupt=0.01,crash=3@2ms,partition=0.1.2.3.4.5|6.7@1ms-6ms"

// partPlan is one row of the partition determinism table.
type partPlan struct {
	name, spec string
	nodes      int
	work       sim.Time // leaf length: the run must outlast the plan
	sanitize   bool
}

var partPlans = []partPlan{
	{"below-lease", "partition=0.1|2.3@200µs-600µs,seed=7", 4, 60 * sim.Microsecond, false},
	{"above-lease", "partition=0.1|2.3@200µs-2500µs,seed=7", 4, 60 * sim.Microsecond, false},
	{"partition-corrupt-drop", "partition=0.1|2.3@200µs-2500µs,corrupt=0.1,drop=0.05,seed=7", 4, 60 * sim.Microsecond, false},
	{"composed", composedSpec, 8, sim.Millisecond, true},
}

// run executes crashProg under the row's plan on simrt, coalescing off or
// on.
func (pc partPlan) run(t *testing.T, coalesce bool) simOut {
	t.Helper()
	plan, err := faults.Parse(pc.spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := earth.Config{Nodes: pc.nodes, Seed: 11, Faults: plan, Sanitize: pc.sanitize}
	if coalesce {
		cfg.Coalesce = earth.CoalesceConfig{Enabled: true}
	}
	var total int
	var done bool
	body, _ := crashProg(&total, &done, cfg.Nodes, cfg.Nodes*2, 4, pc.work)
	return simRun(t, cfg, body)
}

// receiptEvent is the clock-free projection of a receipt-side protocol
// event (EvFenced, EvRecovered, EvCorrupt) compared across engines.
type receiptEvent struct {
	Kind       earth.EventKind
	Node, Peer earth.NodeID
	Bytes      int
	Cause      earth.Cause
}

// TestReceiptEventsConform: both engines hand every arriving message to
// the same receipt function, so a program whose traffic is fixed by its
// dependency chains must report the same receipt events — kind, receiver,
// peer, payload size and cause, with the fault-inflated latency in Dur —
// on either. Every attempt but the last is lost (or, in the second plan,
// corrupted), so each delivery is recovered; node 2's put is issued
// inside a partition that outlives the lease, held at the cut link, and
// lands after the heal from an incarnation fenced meanwhile.
func TestReceiptEventsConform(t *testing.T) {
	const ms = sim.Millisecond
	window := []faults.Partition{{From: 50 * ms, To: 200 * ms, Groups: [2][]int{{0, 1}, {2}}}}
	for _, pc := range []struct {
		name  string
		plan  faults.Plan
		kind  earth.EventKind
		cause earth.Cause
	}{
		{"drops", faults.Plan{Drop: 1, Partition: window}, earth.EvRecovered, earth.CauseDrop},
		{"corrupts", faults.Plan{Corrupt: 1, Partition: window}, earth.EvCorrupt, earth.CauseCorrupt},
	} {
		t.Run(pc.name, func(t *testing.T) {
			want := []receiptEvent{
				{pc.kind, 0, 1, 32, pc.cause},
				{pc.kind, 1, 0, 24, pc.cause},
				{pc.kind, 2, 0, 16, pc.cause},
				{earth.EvFenced, 0, 2, 8, earth.CausePartition},
			}
			// The chains interleave differently on the two engines: compare
			// the events as a set.
			byKindNodePeer := func(a, b receiptEvent) int {
				return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Peer, b.Peer))
			}
			slices.SortFunc(want, byKindNodePeer)
			for _, eng := range bothEngines {
				col := &traceCollector{}
				stale := false
				// Each delivery spends the 25.4ms retry budget. Node 2's
				// invoke lands before the partition, and it issues its put
				// at about 75ms, inside it; the fence falls at 100ms.
				st := eng.new(earth.Config{Nodes: 3, Seed: 5, Faults: &pc.plan, Tracer: col,
					Retry: earth.RetryPolicy{Lease: 50 * ms}}).Run(func(c earth.Ctx) {
					c.Invoke(2, 16, func(c earth.Ctx) {
						c.Compute(50 * ms)
						time.Sleep(50 * time.Millisecond)
						c.Put(0, 8, func() { stale = true }, nil, 0)
					})
					c.Invoke(1, 24, func(c earth.Ctx) { c.Put(0, 32, func() {}, nil, 0) })
				})
				if stale {
					t.Errorf("%s: the fenced incarnation's put was applied", eng.name)
				}
				var got []receiptEvent
				for _, e := range col.evs {
					switch e.Kind {
					case earth.EvFenced, earth.EvRecovered, earth.EvCorrupt:
						got = append(got, receiptEvent{e.Kind, e.Node, e.Peer, e.Bytes, e.Cause})
						if e.Dur <= 0 {
							t.Errorf("%s: %v on node %d carries no latency (Dur=%v)", eng.name, e.Kind, e.Node, e.Dur)
						}
					}
				}
				slices.SortFunc(got, byKindNodePeer)
				if !slices.Equal(got, want) {
					t.Errorf("%s: receipt events\n got %v\nwant %v", eng.name, got, want)
				}
				if tot := st.Total(); tot.MsgsFenced != 1 || tot.WrongVerdicts != 1 || tot.Rejoins != 1 {
					t.Errorf("%s: fenced=%d wrong verdicts=%d rejoins=%d, want 1 each",
						eng.name, tot.MsgsFenced, tot.WrongVerdicts, tot.Rejoins)
				}
			}
		})
	}
}
