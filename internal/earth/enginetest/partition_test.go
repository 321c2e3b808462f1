package enginetest

import (
	"bytes"
	"encoding/json"
	"testing"

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
// Under simrt all of it must additionally be byte-identical across shard
// counts and coalescing settings.

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
			if w, fe, rj := st.TotalWrongVerdicts(), st.TotalFenced(), st.TotalRejoins(); w != 0 || fe != 0 || rj != 0 {
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
			if st.TotalWrongVerdicts() != 2 {
				t.Errorf("%s: wrong verdicts = %d, want 2 (one per minority node)",
					name, st.TotalWrongVerdicts())
			}
			if st.TotalRejoins() != 2 {
				t.Errorf("%s: rejoins = %d, want 2", name, st.TotalRejoins())
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
		if st.TotalFenced() == 0 {
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

// partRun executes body under cfg on simrt at one shard count and returns
// marshalled stats and trace for byte comparison.
func partRun(t *testing.T, cfg earth.Config, shards int) (statsJSON, traceJSON []byte) {
	t.Helper()
	log := &eventLog{}
	cfg.Tracer = log
	cfg.Shards = shards
	var total int
	var done bool
	body, _ := partProg(&total, &done, cfg.Nodes, cfg.Nodes*2, 4)
	st := simrt.New(cfg).Run(body)
	sj, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	tj, err := json.Marshal(log.evs)
	if err != nil {
		t.Fatal(err)
	}
	return sj, tj
}

// TestPartitionShardCoalesceByteIdentical: the partition/fencing/
// corruption machinery must not disturb simrt's determinism contract —
// for each coalescing setting, every shard count produces identical
// bytes.
func TestPartitionShardCoalesceByteIdentical(t *testing.T) {
	plans := []struct{ name, spec string }{
		{"below-lease", "partition=0.1|2.3@200µs-600µs,seed=7"},
		{"above-lease", "partition=0.1|2.3@200µs-2500µs,seed=7"},
		{"partition-corrupt-drop", "partition=0.1|2.3@200µs-2500µs,corrupt=0.1,drop=0.05,seed=7"},
	}
	for _, pc := range plans {
		plan, err := faults.Parse(pc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, coal := range []bool{false, true} {
			name := pc.name + "/coalesce-off"
			cc := earth.CoalesceConfig{}
			if coal {
				name = pc.name + "/coalesce-on"
				cc = earth.CoalesceConfig{Enabled: true, MaxMsgs: 4, MaxBytes: 256}
			}
			t.Run(name, func(t *testing.T) {
				cfg := earth.Config{Nodes: 4, Seed: 11, Faults: plan, Coalesce: cc}
				baseStats, baseTrace := partRun(t, cfg, 1)
				if len(baseTrace) <= len("[]") {
					t.Fatal("baseline run produced no trace events")
				}
				for _, shards := range []int{2, 4} {
					sj, tj := partRun(t, cfg, shards)
					if !bytes.Equal(sj, baseStats) {
						t.Errorf("shards=%d: stats JSON diverges from shards=1\n got: %s\nwant: %s",
							shards, sj, baseStats)
					}
					if !bytes.Equal(tj, baseTrace) {
						t.Errorf("shards=%d: trace diverges from shards=1: %s",
							shards, firstTraceDiff(tj, baseTrace))
					}
				}
			})
		}
	}
}

// FuzzPartitionRecovery: for any byte-derived program and any partition
// window over a byte-derived group split, the simulator must terminate,
// stay byte-identical across shard counts, and fence if and only if the
// window outlives the lease.
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
		run := func(shards int) (*earth.Stats, int, bool) {
			return p.runStats(simrt.New(earth.Config{Nodes: p.nodes, Seed: 1, Faults: plan, Shards: shards}))
		}
		st1, total1, done1 := run(1)
		st2, total2, done2 := run(2)
		j1, _ := json.Marshal(st1)
		j2, _ := json.Marshal(st2)
		if !bytes.Equal(j1, j2) {
			t.Errorf("stats diverge across shards:\n%s\n%s", j1, j2)
		}
		if total1 != total2 || done1 != done2 {
			t.Errorf("results diverge across shards: total %d/%d done %v/%v", total1, total2, done1, done2)
		}
		if st1.TotalWrongVerdicts() == 0 {
			// No fence fired (window below lease, or the run quiesced
			// first): the detector must have been transparent.
			if st1.TotalRejoins() != 0 || st1.TotalFenced() != 0 {
				t.Errorf("no wrong verdict but rejoins=%d fenced=%d",
					st1.TotalRejoins(), st1.TotalFenced())
			}
			if total1 != p.want || !done1 {
				t.Errorf("clean-detector run: total=%d done=%v, want %d", total1, done1, p.want)
			}
		} else if st1.TotalRejoins() > st1.TotalWrongVerdicts() {
			t.Errorf("rejoins=%d exceed wrong verdicts=%d",
				st1.TotalRejoins(), st1.TotalWrongVerdicts())
		}
	})
}
