package earth

import (
	"fmt"
	"reflect"
	"testing"

	"earth/internal/faults"
	"earth/internal/sim"
)

// TestReceiveExhaustive pins the receive-side core over its whole small
// scope: every combination of {epoch stale, current} × {rerouted, not} ×
// {no dup, dup first copy, dup second copy} × {drops 0, 2} × {corrupts 0,
// 1}. The expectations restate the protocol, not the code: the fence
// comes first and touches nothing else, a rerouted survivor of the fence
// has its hops accounted, idempotent delivery comes before the recovery
// accounting, and a recovered copy is reported before its corrupt
// attempts.
func TestReceiveExhaustive(t *testing.T) {
	const (
		from, node = NodeID(3), NodeID(5)
		bytes      = 48
		issue, at  = 100 * us, 940 * us
		seq        = uint64(77)
	)
	ev := func(kind EventKind, cause Cause) Event {
		return Event{Time: at, Node: node, Peer: from, Kind: kind, Cause: cause, Dur: at - issue, Bytes: bytes}
	}
	for _, stale := range []bool{false, true} {
		for _, rerouted := range []bool{false, true} {
			for copyNo := 0; copyNo <= 2; copyNo++ { // 0: not duplicated, 1: first copy, 2: second copy
				for _, drops := range []int{0, 2} {
					for _, corrupts := range []int{0, 1} {
						name := fmt.Sprintf("stale=%v/rerouted=%v/copy=%d/drops=%d/corrupts=%d", stale, rerouted, copyNo, drops, corrupts)
						t.Run(name, func(t *testing.T) {
							var seen SeenSet
							if copyNo == 2 && !seen.First(seq) {
								t.Fatal("fresh set rejected the first copy")
							}
							held := copyNo == 2 // does the set hold the twin's entry?
							a := Arrival{From: from, Bytes: bytes, Issue: issue, Seq: seq,
								Drops: drops, Corrupts: corrupts, Dup: copyNo > 0,
								SendEpoch: 4, Epoch: 4, Rerouted: rerouted}
							if stale {
								a.Epoch = 5
							}
							// receipt is everything Receive decides: the verdict,
							// whether the engine accounts the reroute, the deltas.
							type receipt struct {
								Verdict Verdict
								Reroute bool
								Stats   NodeStats
							}
							var want receipt
							var events []Event
							switch {
							case stale:
								want = receipt{Verdict: FenceNACK, Stats: NodeStats{MsgsFenced: 1}}
								events = []Event{ev(EvFenced, CausePartition)}
							case copyNo == 2:
								want = receipt{Verdict: DropDuplicate, Reroute: rerouted, Stats: NodeStats{DupsDropped: 1}}
								held = false // the entry self-cleans
							default:
								want = receipt{Verdict: Fire, Reroute: rerouted}
								if drops > 0 {
									want.Stats.Recovered = 1
									events = append(events, ev(EvRecovered, CauseDrop))
								}
								if corrupts > 0 {
									want.Stats.MsgsCorrupted = uint64(corrupts)
									events = append(events, ev(EvCorrupt, CauseCorrupt))
								}
								held = copyNo == 1 // remembered until the twin arrives
							}
							var log eventLog
							var got receipt
							got.Verdict, got.Reroute = Receive(&a, &seen, at, node, &got.Stats, SinkOf(&log))
							if got != want {
								t.Errorf("receipt\n got %+v\nwant %+v", got, want)
							}
							if !reflect.DeepEqual([]Event(log), events) && len(log)+len(events) > 0 {
								t.Errorf("events\n got %+v\nwant %+v", log, events)
							}
							// A fenced copy must not consume (or create) the
							// entry its twin needs; an unduplicated message
							// never touches the set. Probe: the next arrival
							// of seq is a first one unless the entry is held.
							if first := seen.First(seq); first == held {
								t.Errorf("after the receipt the set holds seq: %v, want %v", !first, held)
							}
							// A nil sink changes nothing but the emissions.
							var quiet SeenSet
							if copyNo == 2 {
								quiet.First(seq)
							}
							var q receipt
							if q.Verdict, q.Reroute = Receive(&a, &quiet, at, node, &q.Stats, Sink{}); q != got {
								t.Errorf("nil sink changed the receipt: %+v vs %+v", q, got)
							}
						})
					}
				}
			}
		}
	}
}

// TestReceiveFencedTwin: the fence discards one copy of a duplicate, not
// the transmission — the other copy, stamped by a live incarnation, is
// still a first delivery.
func TestReceiveFencedTwin(t *testing.T) {
	var seen SeenSet
	stale := Arrival{Seq: 9, Dup: true, SendEpoch: 1, Epoch: 2}
	fresh := Arrival{Seq: 9, Dup: true, SendEpoch: 2, Epoch: 2}
	for i, step := range []struct {
		a    *Arrival
		want Verdict
	}{{&stale, FenceNACK}, {&fresh, Fire}, {&stale, FenceNACK}, {&fresh, DropDuplicate}} {
		if got, _ := Receive(step.a, &seen, 0, 0, new(NodeStats), Sink{}); got != step.want {
			t.Errorf("step %d: verdict %d, want %d", i, got, step.want)
		}
	}
}

// TestReceiveAllocatesNothing: the receipt sits on every remote delivery
// of a faulted run; untraced it must not touch the heap, on the clean
// path or any faulted one.
func TestReceiveAllocatesNothing(t *testing.T) {
	var seen SeenSet
	var stats NodeStats
	clean := Arrival{From: 1, Bytes: 8, Seq: 1}
	if n := testing.AllocsPerRun(2000, func() { Receive(&clean, &seen, 10, 2, &stats, Sink{}) }); n != 0 {
		t.Errorf("Receive allocates %v times per clean message", n)
	}
	faulted := []Arrival{
		{From: 1, Bytes: 8, Seq: 2, Drops: 2, Corrupts: 1, Rerouted: true},
		{From: 1, Bytes: 8, Seq: 3, Dup: true, Drops: 1}, // first copy
		{From: 1, Bytes: 8, Seq: 3, Dup: true},           // its twin
		{From: 1, Bytes: 8, Seq: 4, Dup: true, SendEpoch: 1, Epoch: 2},
	}
	if n := testing.AllocsPerRun(2000, func() {
		for i := range faulted {
			Receive(&faulted[i], &seen, 10, 2, &stats, Sink{})
		}
	}); n != 0 {
		t.Errorf("Receive allocates %v times per faulted round", n)
	}
}

// TestSeenSet: first delivery wins, the second copy is rejected, and the
// entry self-cleans so the set holds only duplicates still in flight.
func TestSeenSet(t *testing.T) {
	var s SeenSet
	if !s.First(7) {
		t.Error("first delivery rejected")
	}
	if s.First(7) {
		t.Error("second delivery of a duplicated message accepted")
	}
	// Self-cleaning: after both copies the entry is gone, so the number is
	// (impossibly, in practice) a first delivery again.
	if !s.First(7) {
		t.Error("bookkeeping not cleaned after the second copy")
	}
	// Sequence numbers are independent of each other.
	if !s.First(8) || s.First(7) || s.First(8) {
		t.Error("interleaved sequence numbers disturbed each other")
	}
	s.First(9)
	s.Reset()
	if !s.First(9) {
		t.Error("Reset kept an entry")
	}
}

// TestHandover pins what is counted and traced when work changes hands.
func TestHandover(t *testing.T) {
	var log eventLog
	h := Handover{Down: 2, At: 5 * us, Cause: CausePartition, Sink: SinkOf(&log)}
	if got := h.Replay(3); got != (NodeStats{FramesReplayed: 1}) {
		t.Errorf("Replay delta %+v", got)
	}
	if got := h.Reassign(0, 24); got != (NodeStats{TokensReassigned: 1}) {
		t.Errorf("Reassign delta %+v", got)
	}
	want := []Event{
		{Time: 5 * us, Node: 3, Peer: 2, Kind: EvFrameReplayed, Cause: CausePartition},
		{Time: 5 * us, Node: 0, Peer: 2, Kind: EvWorkReassigned, Bytes: 24, Cause: CausePartition},
	}
	if !reflect.DeepEqual([]Event(log), want) {
		t.Errorf("events\n got %+v\nwant %+v", log, want)
	}
	h.Sink = Sink{}
	if h.Replay(3) != (NodeStats{FramesReplayed: 1}) || h.Reassign(0, 24) != (NodeStats{TokensReassigned: 1}) {
		t.Error("a nil sink changed the deltas")
	}
}

// TestTakeover is the node-fate table: who adopts a down node's queues and
// where its tokens go, at and around equal instants; who holds a node's
// frames through chains of hand-overs; and what Reset leaves.
func TestTakeover(t *testing.T) {
	span := func(node int, at, heal sim.Time) faults.Fence { return faults.Fence{Node: node, At: at, Heal: heal} }
	table := func(nodes int, fences faults.Fences, crashAt []sim.Time) *Takeover {
		tk := &Takeover{}
		tk.Init(nodes, FaultSetup{Fences: fences, CrashAt: crashAt, Retry: RetryPolicy{Lease: 1000}})
		return tk
	}
	// Node 1 is fenced alone, then again together with its successors.
	twice := faults.Fences{span(1, 10, 20), span(1, 100, 120), span(2, 100, 120), span(3, 100, 120), span(4, 100, 120)}
	never := []sim.Time{-1, -1, -1, -1}
	adopters := []struct {
		name    string
		nodes   int
		fences  faults.Fences
		crashAt []sim.Time
		fenced  []NodeID // recorded as fenced before x's hand-over
		crashed []NodeID // recorded as crashed before it
		x       NodeID
		at      sim.Time
		want    NodeID
	}{
		{"lone fence", 4, faults.Fences{span(1, 10, 20)}, nil, []NodeID{1}, nil, 1, 10, 2},
		// The case PR 13 fixed by hand in livert: two fences of one
		// partition fire as racing timers, and whichever runs first sees
		// no record of its peer yet. The schedule keeps it from adopting
		// into a node that is fencing at the same instant.
		{"same-instant double fence, first timer", 4, faults.Fences{span(2, 10, 20), span(3, 10, 20)}, nil, []NodeID{2}, nil, 2, 10, 0},
		{"same-instant double fence, second timer", 4, faults.Fences{span(2, 10, 20), span(3, 10, 20)}, nil, []NodeID{2, 3}, nil, 3, 10, 0},
		{"second fence of a node, first window", 8, twice, nil, []NodeID{1}, nil, 1, 10, 2},
		{"second fence of a node, successors fencing too", 8, twice, nil, []NodeID{1}, nil, 1, 100, 5},
		{"a healed peer adopts unless it is gone", 4, faults.Fences{span(2, 10, 20), span(1, 25, 40)}, nil, []NodeID{1}, nil, 1, 30, 2},
		{"an ever-fenced peer never adopts", 4, faults.Fences{span(2, 10, 20), span(1, 25, 40)}, nil, []NodeID{2, 1}, nil, 1, 30, 3},
		{"ring wraps past a crashed tail", 4, nil, []sim.Time{-1, -1, 0, 0}, nil, []NodeID{2, 3}, 2, 1000, 0},
		// livert's crash timers race too: a crash due by the instant is out
		// before its timer has recorded it.
		{"a crash due at the instant counts", 4, nil, []sim.Time{-1, 0, 1000, -1}, nil, []NodeID{1}, 1, 1000, 3},
		{"a crash not yet due does not", 4, nil, []sim.Time{-1, 0, 1001, -1}, nil, []NodeID{1}, 1, 1000, 2},
	}
	for _, c := range adopters {
		tk := table(c.nodes, c.fences, c.crashAt)
		for _, x := range c.fenced {
			tk.Fence(x)
		}
		for _, x := range c.crashed {
			tk.Crash(x)
		}
		if got := tk.HandOver(c.x, c.at); got != c.want || tk.Owner(c.x) != c.want {
			t.Errorf("%s: node %d adopts, owner %d, want %d", c.name, got, tk.Owner(c.x), c.want)
		}
	}

	// Placement: round-robin over the nodes that are not out, the cursor
	// carrying over from one failover to the next.
	tk := table(4, faults.Fences{span(3, 10, 20)}, never)
	tk.Crash(1)
	place := func(at sim.Time, n int) (got []NodeID) {
		for i := 0; i < n; i++ {
			got = append(got, tk.Place(at))
		}
		return got
	}
	if got, want := place(10, 4), []NodeID{0, 2, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("placement at the fence instant %v, want %v (1 crashed, 3 fencing)", got, want)
	}
	if got, want := place(20, 3), []NodeID{3, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("placement after the heal %v, want %v (cursor continues, 3 eligible again)", got, want)
	}

	// Owners through chains of hand-overs, under a lease of 1000: node 1
	// crashes at 100 and is declared at 1100; node 2 crashes at 1200 and is
	// declared at 2200; node 3 crashes at 2300 and is declared at 3300.
	owners := func(tk *Takeover) (got []NodeID) {
		for x := range 6 {
			got = append(got, tk.Owner(NodeID(x)))
		}
		return got
	}
	tk = table(6, nil, []sim.Time{-1, 100, 1200, 2300, -1, -1})
	steps := []struct {
		crash, handOver NodeID
		at              sim.Time
		want            []NodeID
	}{
		{1, -1, 100, []NodeID{0, 1, 2, 3, 4, 5}}, // crashed, not declared: node 1 still holds its frames
		{-1, 1, 1100, []NodeID{0, 2, 2, 3, 4, 5}},
		{2, 2, 2200, []NodeID{0, 3, 3, 3, 4, 5}}, // two hand-overs from node 1
		{3, 3, 3300, []NodeID{0, 4, 4, 4, 4, 5}}, // three
	}
	for _, s := range steps {
		if s.crash >= 0 && !tk.Crash(s.crash) {
			t.Errorf("node %d's crash reported as its second", s.crash)
		}
		if s.handOver >= 0 {
			tk.HandOver(s.handOver, s.at)
		}
		if got := owners(tk); !reflect.DeepEqual(got, s.want) {
			t.Errorf("owners at %v: %v, want %v", s.at, got, s.want)
		}
	}
	if tk.Crash(1) {
		t.Error("a second crash of node 1 reported as its first")
	}

	// A chained crash inside one lease: node 2 crashes at 400, after node 1
	// at 100 and before node 1 is declared at 1100. Node 1's adopter skips
	// node 2 — crashed, though not declared — and node 2's frames stay with
	// it until its own declaration at 1400.
	tk = table(6, nil, []sim.Time{-1, 100, 400, -1, -1, -1})
	tk.Crash(1)
	tk.Crash(2)
	if a := tk.HandOver(1, 1100); a != 3 {
		t.Errorf("node 1's adopter is %d, want 3, past crashed node 2", a)
	}
	if got, want := owners(tk), []NodeID{0, 3, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("owners between the two declarations: %v, want %v", got, want)
	}
	tk.HandOver(2, 1400)
	if got, want := owners(tk), []NodeID{0, 3, 3, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("owners after both declarations: %v, want %v", got, want)
	}

	// A fence, a rejoin, then a crash of the same node: the fence bumps the
	// epoch and hands the frames over for good; a crashed node is fenced no
	// more, and its declaration hands over again, to the same adopter.
	tk = table(4, faults.Fences{span(1, 10, 20), span(1, 30, 40)}, []sim.Time{-1, 25, -1, -1})
	if !tk.Fence(1) || tk.Epoch(1) != 1 || tk.HandOver(1, 10) != 2 {
		t.Errorf("fence of node 1: epoch %d, owner %d, want 1 and 2", tk.Epoch(1), tk.Owner(1))
	}
	tk.Crash(1)
	if tk.Fence(1) || tk.Epoch(1) != 1 {
		t.Errorf("a crashed node was fenced again: epoch %d", tk.Epoch(1))
	}
	if a := tk.HandOver(1, 1025); a != 2 || tk.Owner(1) != 2 || !tk.Crashed(1) {
		t.Errorf("node 1's crash declared to node %d, owner %d, want 2", a, tk.Owner(1))
	}
	if p := tk.Place(1025); p == 1 {
		t.Error("a token was placed on fenced and crashed node 1")
	}

	// Reset brings every node back for the next run.
	tk.Reset()
	for x := range 4 {
		if id := NodeID(x); tk.Owner(id) != id || tk.Epoch(id) != 0 || tk.Crashed(id) {
			t.Errorf("after Reset node %d: owner %d, epoch %d, crashed %v", x, tk.Owner(id), tk.Epoch(id), tk.Crashed(id))
		}
	}
	if p := tk.Place(1025); p != 0 {
		t.Errorf("first placement after Reset on node %d, want 0", p)
	}

	// The questions every message asks allocate nothing, on a clean
	// machine's empty table and on a faulted one's.
	tk.Fence(1)
	tk.HandOver(1, 10)
	for _, tab := range []*Takeover{{}, tk} {
		if n := testing.AllocsPerRun(100, func() {
			_ = tab.Owner(1)
			_ = tab.Epoch(1)
		}); n != 0 {
			t.Errorf("Owner and Epoch allocate %v times per call", n)
		}
	}
}

// TestPartitionMarks: every window traces its start; only windows inside
// the lease trace a heal (the minority of a longer one rejoins instead),
// and the events land on the minority nodes the machine has.
func TestPartitionMarks(t *testing.T) {
	const lease = 100 * us
	plan := &faults.Plan{Partition: []faults.Partition{
		{From: 0, To: 50 * us, Groups: [2][]int{{0, 1, 2}, {3}}},                // inside the lease
		{From: 200 * us, To: 300 * us, Groups: [2][]int{{0, 1}, {2, 3, 9}}},     // exactly the lease: nobody fences
		{From: 400 * us, To: 501 * us, Groups: [2][]int{{0, 3}, {1, 2}}},        // outlives it
		{From: 600 * us, To: 1000 * us, Groups: [2][]int{{0, 1, 2, 3}, {4, 5}}}, // minority outside the machine
	}}
	var log eventLog
	PartitionMarks(plan, lease, func(pt faults.Partition, ev Event) { MarkPartition(SinkOf(&log), pt, 4, ev) })
	mark := func(at sim.Time, node NodeID, kind EventKind, dur sim.Time) Event {
		return Event{Time: at, Node: node, Peer: NoPeer, Kind: kind, Dur: dur, Cause: CausePartition}
	}
	want := []Event{
		mark(0, 3, EvPartitionStart, 50*us), mark(50*us, 3, EvPartitionHeal, 0),
		mark(200*us, 0, EvPartitionStart, 100*us), mark(200*us, 1, EvPartitionStart, 100*us),
		mark(300*us, 0, EvPartitionHeal, 0), mark(300*us, 1, EvPartitionHeal, 0),
		mark(400*us, 1, EvPartitionStart, 101*us), mark(400*us, 2, EvPartitionStart, 101*us),
	}
	if !reflect.DeepEqual([]Event(log), want) {
		t.Errorf("marks\n got %+v\nwant %+v", log, want)
	}
}
