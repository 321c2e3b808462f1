package enginetest

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// Partition/fencing conformance: failure detection is fallible by
// construction — a partition that outlives the detection lease makes the
// survivors declare healthy nodes dead. The machinery under test must
// keep two promises:
//
//   - A partition shorter than the lease is invisible to the detector:
//     zero wrong verdicts, zero fenced messages, zero rejoins, and the
//     run converges to the fault-free result.
//   - A partition longer than the lease costs work, never safety: the
//     majority side adopts at a bumped epoch, every stale-epoch message
//     is rejected at its receiver, the minority self-fences and rejoins
//     at heal — and the run still terminates.
//
// Under simrt all of it must additionally be byte-reproducible, with and
// without coalescing.

// partProg is crashProg with 60µs leaves: short enough that the windows
// below land mid-run on both engines.
func partProg(total *int, done *bool, nodes, spread, perNode int) (earth.ThreadBody, int) {
	return crashProg(total, done, nodes, spread, perNode, 60*sim.Microsecond)
}

// TestPartitionFalsePositive is the acceptance scenario: the same
// machine, the same program, one partition below the lease and one above
// it. The short window must be a non-event; the long one must produce a
// wrong verdict per minority node on the majority side, a self-fence and
// rejoin on each minority node, and nothing else.
func TestPartitionFalsePositive(t *testing.T) {
	const nodes = 4
	short, err := faults.Parse("partition=0.1|2.3@200µs-600µs,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	long, err := faults.Parse("partition=0.1|2.3@200µs-2500µs,seed=7")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("below-lease", func(t *testing.T) {
		for _, eng := range bothEngines {
			name := eng.name
			var total int
			var done bool
			body, want := partProg(&total, &done, nodes, nodes*2, 4)
			st := eng.new(earth.Config{Nodes: nodes, Seed: 11, Faults: short}).Run(body)
			if total != want || !done {
				t.Errorf("%s: total=%d done=%v, want %d", name, total, done, want)
			}
			if w, fe, rj := st.Total().WrongVerdicts, st.Total().MsgsFenced, st.Total().Rejoins; w != 0 || fe != 0 || rj != 0 {
				t.Errorf("%s: partition below lease must be invisible, got wrong=%d fenced=%d rejoins=%d",
					name, w, fe, rj)
			}
		}
	})

	t.Run("above-lease", func(t *testing.T) {
		for _, eng := range bothEngines {
			name := eng.name
			var total int
			var done bool
			body, _ := partProg(&total, &done, nodes, nodes*2, 4)
			// Termination, not convergence: fenced work is lost.
			st := eng.new(earth.Config{Nodes: nodes, Seed: 11, Faults: long}).Run(body)
			if st.Total().WrongVerdicts != 2 {
				t.Errorf("%s: wrong verdicts = %d, want 2 (one per minority node)",
					name, st.Total().WrongVerdicts)
			}
			if st.Total().Rejoins != 2 {
				t.Errorf("%s: rejoins = %d, want 2", name, st.Total().Rejoins)
			}
			for i, ns := range st.Nodes {
				minority := i >= 2 // groups 0.1|2.3: the side without node 0 fences
				if minority && ns.WrongVerdicts != 0 {
					t.Errorf("%s: node %d is minority but issued %d wrong verdicts", name, i, ns.WrongVerdicts)
				}
				if !minority && ns.Rejoins != 0 {
					t.Errorf("%s: node %d is majority but rejoined %d times", name, i, ns.Rejoins)
				}
			}
		}
	})

	t.Run("stale-epochs-rejected-simrt", func(t *testing.T) {
		// Deterministic on the simulator: minority leaves issued before the
		// fence are held at the cut link and land after the epoch bump, so
		// some must be rejected. (livert's equivalent is timing-dependent
		// and covered by the counters being wired at all, above.)
		var total int
		var done bool
		body, _ := partProg(&total, &done, nodes, nodes*2, 4)
		st := simrt.New(earth.Config{Nodes: nodes, Seed: 11, Faults: long}).Run(body)
		if st.Total().MsgsFenced == 0 {
			t.Error("simrt: no stale-epoch message was fenced across the long partition")
		}
	})
}

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

// TestPartitionShardCoalesceByteIdentical: the partition/fencing/
// corruption machinery — alone, and composed with every other fault
// class under the sanitizer — must not disturb simrt's determinism
// contract: for each coalescing setting, two machines built from the same
// Config produce identical bytes. (The test's name predates PR 19, when
// the second machine was split over shard workers; the bytes themselves
// are pinned by TestEngineBytesPinned.)
func TestPartitionShardCoalesceByteIdentical(t *testing.T) {
	for _, pc := range partPlans {
		for _, coal := range []bool{false, true} {
			t.Run(pc.name+"/"+coalName(coal), func(t *testing.T) {
				sameBytes(t, "second machine", pc.run(t, coal), pc.run(t, coal))
			})
		}
	}
}

// TestComposedFaults runs the composed plan on both engines. Crash,
// partition and message faults may reshape timing and placement and, when
// the window outlives the lease, lose the fenced minority's work — never
// apply an effect twice, and never hang. Under a lease longer than the
// window nobody fences, so nothing may be lost either: the run converges
// to the fault-free result, sanitizer clean.
func TestComposedFaults(t *testing.T) {
	const nodes, spread, perNode = 8, 16, 6
	plan, err := faults.Parse(composedSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, lease := range []sim.Time{0, 20 * sim.Millisecond} { // 0: the 1ms default
		for _, eng := range bothEngines {
			name := eng.name + "/window-outlives-lease"
			if lease > 0 {
				name = eng.name + "/window-inside-lease"
			}
			t.Run(name, func(t *testing.T) {
				// crashProg's shape, counting every leaf's contribution.
				hits := make([]int, spread*perNode)
				done := false
				st := eng.new(earth.Config{Nodes: nodes, Seed: 11, Faults: plan, Sanitize: true,
					Retry: earth.RetryPolicy{Lease: lease}}).Run(func(c earth.Ctx) {
					f := earth.NewFrame(0, 1, 1)
					f.InitSync(0, len(hits), 0, 0)
					f.SetThread(0, func(earth.Ctx) { done = true })
					for s := 0; s < spread; s++ {
						c.Invoke(earth.NodeID(s%nodes), 8, func(c earth.Ctx) {
							for i := 0; i < perNode; i++ {
								v := s*perNode + i
								c.Token(8, func(c earth.Ctx) {
									c.Compute(sim.Millisecond)
									time.Sleep(time.Millisecond)
									c.Put(0, 8, func() { hits[v]++ }, f, 0)
								})
							}
						})
					}
				})
				landed := 0
				for v, n := range hits {
					if n > 1 {
						t.Errorf("leaf %d contributed %d times", v, n)
					}
					landed += n
				}
				for _, fd := range st.Sanitize.Findings {
					if fd.Kind == earth.SanOverflow || fd.Kind == earth.SanUnderflow {
						t.Errorf("a sync signal was applied twice: %v", fd)
					}
				}
				tot := st.Total()
				if tot.FaultsInjected == 0 || st.Nodes[3].DetectionLatency == 0 {
					t.Errorf("plan did not bite: faults=%d, node 3 detection latency %v", tot.FaultsInjected, st.Nodes[3].DetectionLatency)
				}
				if lease == 0 {
					if tot.WrongVerdicts != 2 || tot.Rejoins != 2 {
						t.Errorf("wrong verdicts=%d rejoins=%d, want 2 and 2 (nodes 6 and 7)", tot.WrongVerdicts, tot.Rejoins)
					}
					return
				}
				if landed != len(hits) || !done || !st.Sanitize.Clean() || tot.WrongVerdicts != 0 {
					t.Errorf("window inside the lease must converge: %d/%d leaves, done=%v, wrong verdicts=%d, sanitizer:\n%s",
						landed, len(hits), done, tot.WrongVerdicts, st.Sanitize)
				}
			})
		}
	}
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
				// The fence falls at 100ms; node 2 issues its put at 75ms.
				st := eng.new(earth.Config{Nodes: 3, Seed: 5, Faults: &pc.plan, Tracer: col,
					Retry: earth.RetryPolicy{MaxRetries: 2, Lease: 50 * ms}}).Run(func(c earth.Ctx) {
					c.Invoke(2, 16, func(c earth.Ctx) {
						c.Compute(75 * ms)
						time.Sleep(75 * time.Millisecond)
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

// FuzzPartitionRecovery: for any byte-derived program and any partition
// window over a byte-derived group split, the simulator must terminate,
// repeat itself byte for byte on a second machine, and fence if and only
// if the window outlives the lease.
func FuzzPartitionRecovery(f *testing.F) {
	f.Add(uint8(1), uint32(200_000), uint32(400_000), uint8(0), []byte{5, 3, 2, 40, 41, 42})
	f.Add(uint8(2), uint32(200_000), uint32(2_300_000), uint8(10), []byte{1, 2, 3})
	f.Add(uint8(5), uint32(0), uint32(3_000_000), uint8(40), []byte{255, 3, 255, 0, 7, 7, 99, 1})
	f.Fuzz(func(t *testing.T, split uint8, from, dur uint32, corrupt uint8, data []byte) {
		p := decodeFuzzProgram(data)
		if p.nodes < 3 {
			p.nodes = 3 // need a majority side worth adopting into
		}
		// A byte-derived two-group split: cut point in [1, nodes-1].
		cut := 1 + int(split)%(p.nodes-1)
		var groups [2][]int
		for n := 0; n < p.nodes; n++ {
			if n < cut {
				groups[0] = append(groups[0], n)
			} else {
				groups[1] = append(groups[1], n)
			}
		}
		plan := &faults.Plan{Seed: 1, Corrupt: float64(corrupt%50) / 100,
			Partition: []faults.Partition{{
				From:   sim.Time(from % 1_000_000),
				Groups: groups,
			}}}
		plan.Partition[0].To = plan.Partition[0].From + 1 + sim.Time(dur%3_000_000)
		if err := plan.Validate(); err != nil {
			t.Fatalf("constructed plan invalid: %v", err)
		}
		run := func() (*earth.Stats, int, bool) {
			return p.runStats(simrt.New(earth.Config{Nodes: p.nodes, Seed: 1, Faults: plan}))
		}
		st1, total1, done1 := run()
		st2, total2, done2 := run()
		j1, _ := json.Marshal(st1)
		j2, _ := json.Marshal(st2)
		if !bytes.Equal(j1, j2) {
			t.Errorf("stats diverge between two machines:\n%s\n%s", j1, j2)
		}
		if total1 != total2 || done1 != done2 {
			t.Errorf("results diverge between two machines: total %d/%d done %v/%v", total1, total2, done1, done2)
		}
		if st1.Total().WrongVerdicts == 0 {
			// No fence fired (window below lease, or the run quiesced
			// first): the detector must have been transparent.
			if st1.Total().Rejoins != 0 || st1.Total().MsgsFenced != 0 {
				t.Errorf("no wrong verdict but rejoins=%d fenced=%d",
					st1.Total().Rejoins, st1.Total().MsgsFenced)
			}
			if total1 != p.want || !done1 {
				t.Errorf("clean-detector run: total=%d done=%v, want %d", total1, done1, p.want)
			}
		} else if st1.Total().Rejoins > st1.Total().WrongVerdicts {
			t.Errorf("rejoins=%d exceed wrong verdicts=%d",
				st1.Total().Rejoins, st1.Total().WrongVerdicts)
		}
	})
}
