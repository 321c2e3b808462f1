package earth

import (
	"math"
	"reflect"
	"testing"

	"earth/internal/faults"
	"earth/internal/sim"
)

const us = sim.Microsecond

// eventLog records the core's emissions in order.
type eventLog []Event

func (l *eventLog) Event(e Event) { *l = append(*l, e) }

// seedFor scans plan seeds for one whose first verdict has the wanted
// drop count, so a case can pin a verdict no 0/1 probability forces.
func seedFor(t *testing.T, plan faults.Plan, drops int) int64 {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		plan.Seed = seed
		if faults.NewInjector(&plan, 0).Next(MaxRetries).Drops == drops {
			return seed
		}
	}
	t.Fatalf("no seed below 1000 yields %d drops", drops)
	return 0
}

// jittered maps an unjittered expectation to the one a run with the given
// backoff scale must produce: every drop/corrupt timeout is scaled (floor
// 1ns), later events of the chain shift by the accumulated difference,
// each leg's EvFaultInjected reports the scaled total, and the delivery
// lands later by the whole shift. Cut-link holds are never jittered.
func jittered(evs []Event, d Delivery, scale float64) ([]Event, Delivery) {
	out := make([]Event, len(evs))
	var shift, leg sim.Time
	for i, e := range evs {
		if e.Cause == CauseDrop || e.Cause == CauseCorrupt {
			switch e.Kind {
			case EvTimedOut:
				to := max(1, sim.Time(float64(e.Dur)*scale))
				shift += to - e.Dur
				leg += to
				e.Dur = to
				e.Time += shift
			case EvRetry:
				e.Time += shift
			case EvFaultInjected:
				e.Dur, leg = leg, 0
			}
		}
		out[i] = e
	}
	d.Delay += shift
	return out, d
}

// TestPlanDelivery pins the delivery-protocol core: for every fault shape
// and both jitter settings, the exact delay, shifted issue, counter deltas
// and the emitted event list, at the protocol's constants. One 64-byte
// message from node 1 to node 2 issued at 1ms.
func TestPlanDelivery(t *testing.T) {
	const (
		src, dst = NodeID(1), NodeID(2)
		bytes    = 64
		issue    = 1000 * us
		budget   = 25400 * us // all eight timeouts below
	)
	// timeouts is one message's backoff walk: 200µs doubling per attempt,
	// attempts 5-7 on the 6.4ms cap.
	timeouts := []sim.Time{200 * us, 400 * us, 800 * us, 1600 * us, 3200 * us, 6400 * us, 6400 * us, 6400 * us}
	cut := func(to sim.Time) []faults.Partition {
		return []faults.Partition{{From: 900 * us, To: to, Groups: [2][]int{{1}, {2}}}}
	}
	ev := func(at sim.Time, kind EventKind, cause Cause, dur sim.Time) Event {
		return Event{Time: at, Kind: kind, Cause: cause, Dur: dur, Node: src, Peer: dst, Bytes: bytes}
	}
	// chain is the first n attempts of the backoff walk from base, all of
	// one cause.
	chain := func(base sim.Time, cause Cause, n int) []Event {
		var evs []Event
		for _, to := range timeouts[:n] {
			base += to
			evs = append(evs, ev(base, EvTimedOut, cause, to), ev(base, EvRetry, cause, 0))
		}
		return evs
	}
	mixed := faults.Plan{Drop: 0.5, Corrupt: 1}
	mixed.Seed = seedFor(t, mixed, 1)
	// The reorder hold-back is the one seeded quantity a case depends on.
	reorder := faults.Plan{Reorder: 1, Window: 50 * us, Seed: 5}
	hold := faults.NewInjector(&reorder, 0).Next(MaxRetries).Delay
	if hold <= 0 || hold > 50*us {
		t.Fatalf("reorder hold-back %v outside (0, 50µs]", hold)
	}

	cases := []struct {
		name   string
		plan   faults.Plan
		want   Delivery
		events []Event
	}{
		{name: "clean",
			want: Delivery{Issue: issue}},
		{name: "drops", plan: faults.Plan{Drop: 1},
			// Eight attempts lost: the retry budget is spent, and the last
			// retransmission lands.
			want: Delivery{Issue: issue, Delay: budget, Drops: 8, FaultsInjected: 1, Retries: 8},
			events: append(chain(issue, CauseDrop, 8),
				ev(issue, EvFaultInjected, CauseDrop, budget))},
		{name: "corrupts", plan: faults.Plan{Corrupt: 1},
			want: Delivery{Issue: issue, Delay: budget, Corrupts: 8, FaultsInjected: 1, Retries: 8},
			events: append(chain(issue, CauseCorrupt, 8),
				ev(issue, EvFaultInjected, CauseCorrupt, budget))},
		{name: "drops+corrupts", plan: mixed,
			// The corrupt NACKs continue the drop's backoff chain.
			want: Delivery{Issue: issue, Delay: budget, Drops: 1, Corrupts: 7, FaultsInjected: 2, Retries: 8},
			events: append(append(chain(issue, CauseDrop, 1),
				ev(issue, EvFaultInjected, CauseDrop, 200*us)),
				append(chain(issue, CauseCorrupt, 8)[2:],
					ev(issue, EvFaultInjected, CauseCorrupt, budget-200*us))...)},
		{name: "delay", plan: reorder,
			want:   Delivery{Issue: issue, Delay: hold, FaultsInjected: 1},
			events: []Event{ev(issue, EvFaultInjected, CauseDelay, hold)}},
		{name: "dup", plan: faults.Plan{Dup: 1},
			want:   Delivery{Issue: issue, Dup: true, FaultsInjected: 1},
			events: []Event{ev(issue, EvFaultInjected, CauseDup, 0)}},
		{name: "cut-shorter-than-budget", plan: faults.Plan{Partition: cut(1250 * us)},
			// The second timeout lands past the heal, so the third never arms.
			want: Delivery{Issue: 1250 * us, Delay: 250 * us, FaultsInjected: 1, Retries: 2},
			events: append(chain(issue, CausePartition, 2),
				ev(issue, EvFaultInjected, CausePartition, 250*us))},
		{name: "cut-longer-than-budget", plan: faults.Plan{Partition: cut(30000 * us)},
			// The budget runs out at 26.4ms; the message still waits for the heal.
			want: Delivery{Issue: 30000 * us, Delay: 29000 * us, FaultsInjected: 1, Retries: 8},
			events: append(chain(issue, CausePartition, 8),
				ev(issue, EvFaultInjected, CausePartition, 29000*us))},
		{name: "cut+drops", plan: faults.Plan{Drop: 1, Partition: cut(1250 * us)},
			// The drop chain restarts at attempt 0 from the heal instant.
			want: Delivery{Issue: 1250 * us, Delay: 250*us + budget, Drops: 8, FaultsInjected: 2, Retries: 10},
			events: append(append(chain(issue, CausePartition, 2),
				ev(issue, EvFaultInjected, CausePartition, 250*us)),
				append(chain(1250*us, CauseDrop, 8),
					ev(1250*us, EvFaultInjected, CauseDrop, budget))...)},
	}
	for _, c := range cases {
		for _, jitter := range []float64{0, 0.25} {
			name := c.name + "/jitter-off"
			if jitter > 0 {
				name = c.name + "/jitter-on"
			}
			t.Run(name, func(t *testing.T) {
				pol := RetryPolicy{Jitter: jitter}
				in, ref := faults.NewInjector(&c.plan, 0), faults.NewInjector(&c.plan, 0)
				want, events := c.want, c.events
				want.Seq = 1
				// The jitter draw is gated on lost attempts: the reference
				// stream spends it exactly when the core must.
				if v := ref.Next(MaxRetries); jitter > 0 && (v.Drops > 0 || v.Corrupts > 0) {
					events, want = jittered(events, want, pol.JitterScale(ref.Float64()))
				}
				var log eventLog
				got := PlanDelivery(in, pol, &c.plan, src, dst, bytes, issue, SinkOf(&log))
				if got != want {
					t.Errorf("delivery\n got %+v\nwant %+v", got, want)
				}
				if !reflect.DeepEqual([]Event(log), events) && len(log)+len(events) > 0 {
					t.Errorf("events\n got %+v\nwant %+v", log, events)
				}
				if a, b := in.Float64(), ref.Float64(); a != b {
					t.Errorf("random stream diverged after the message: next draw %v, reference %v", a, b)
				}
				// A nil sink changes nothing but the emissions.
				quiet := PlanDelivery(faults.NewInjector(&c.plan, 0), pol, &c.plan, src, dst, bytes, issue, Sink{})
				if quiet != got {
					t.Errorf("nil sink changed the delivery: %+v vs %+v", quiet, got)
				}
			})
		}
	}
}

// TestPlanDeliveryAllocatesNothing: the core sits on every remote send of
// a faulted run; with no tracer it must not touch the heap, whatever the
// verdict.
func TestPlanDeliveryAllocatesNothing(t *testing.T) {
	plan := &faults.Plan{Seed: 3, Drop: 0.3, Corrupt: 0.3, Reorder: 0.3,
		Partition: []faults.Partition{{From: 0, To: sim.Millisecond, Groups: [2][]int{{0}, {1}}}}}
	retry := RetryPolicy{Jitter: 0.2}
	in := faults.NewInjector(plan, 0)
	var at sim.Time
	if n := testing.AllocsPerRun(2000, func() {
		at += 7 * us // walks across the heal: held and unheld messages alike
		PlanDelivery(in, retry, plan, 0, 1, 128, at, Sink{})
	}); n != 0 {
		t.Errorf("PlanDelivery allocates %v times per message with a nil sink", n)
	}
}

// TestResolveFaults: the one resolver both engines construct from accepts
// clean and survivable configs and rejects plans leaving nobody to adopt.
func TestResolveFaults(t *testing.T) {
	if fs, err := (Config{Nodes: 4}).ResolveFaults(); err != nil || fs.Plan != nil {
		t.Errorf("clean config: setup %+v, err %v", fs, err)
	}
	plan := &faults.Plan{Drop: 0.1,
		Crash:     []faults.Crash{{Node: 1, At: sim.Millisecond}},
		Partition: []faults.Partition{{From: 0, To: 3 * sim.Millisecond, Groups: [2][]int{{0, 1, 2}, {3}}}}}
	fs, err := Config{Nodes: 4, Faults: plan, Retry: RetryPolicy{Lease: 2 * sim.Millisecond}}.ResolveFaults()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Plan != plan || fs.Retry.Lease != 2*sim.Millisecond {
		t.Errorf("plan/retry not resolved: %+v", fs)
	}
	if want := []sim.Time{-1, sim.Millisecond, -1, -1}; !reflect.DeepEqual(fs.CrashAt, want) {
		t.Errorf("CrashAt = %v, want %v", fs.CrashAt, want)
	}
	if want := (faults.Fences{{Node: 3, At: 2 * sim.Millisecond, Heal: 3 * sim.Millisecond}}); !reflect.DeepEqual(fs.Fences, want) {
		t.Errorf("Fences = %v, want %v", fs.Fences, want)
	}
	killAll := &faults.Plan{Crash: []faults.Crash{{Node: 0, At: 0}, {Node: 1, At: sim.Millisecond}}}
	if _, err := (Config{Nodes: 2, Faults: killAll}).ResolveFaults(); err == nil {
		t.Error("a crash plan killing every node was accepted")
	}
	// Nodes 0 and 1 crash, node 2 fences: nobody is up at the fence instant.
	noSurvivor := &faults.Plan{Crash: []faults.Crash{{Node: 0, At: 0}, {Node: 1, At: 0}},
		Partition: []faults.Partition{{From: 0, To: 5 * sim.Millisecond, Groups: [2][]int{{0, 1}, {2}}}}}
	if _, err := (Config{Nodes: 3, Faults: noSurvivor}).ResolveFaults(); err == nil {
		t.Error("a plan fencing or crashing every node was accepted")
	}
	// A retry policy no engine can run is an error, with or without a plan,
	// never a silently substituted default.
	for _, p := range []*faults.Plan{nil, plan} {
		for _, bad := range []RetryPolicy{{Lease: -1}, {Jitter: 1}, {Jitter: -0.1}, {Jitter: math.NaN()}} {
			if _, err := (Config{Nodes: 4, Faults: p, Retry: bad}).ResolveFaults(); err == nil {
				t.Errorf("retry policy %+v accepted (plan %v)", bad, p)
			}
		}
	}
}
