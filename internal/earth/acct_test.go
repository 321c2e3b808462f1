package earth

import (
	"math/rand"
	"slices"
	"testing"

	"earth/internal/manna"
	"earth/internal/sim"
)

// acctScript drives every NodeAcct method once or more on a fresh frame
// and returns that frame and what its two signals returned.
func acctScript(a *NodeAcct) (*Frame, [2]ThreadBody) {
	f := NewFrame(a.Node, 1, 1).SetThread(0, body)
	f.InitSync(0, 2, 0, 0)
	fired := [2]ThreadBody{a.Signal(5, 3, f, 0), a.Signal(6, 2, f, 0)}
	a.Issue(EvPutSend, 7, 1, 16)
	a.Issue(EvTokenSpawn, 8, NoPeer, 24)
	a.Deliver(EvGetDeliver, 20, 9, 1, 8)
	a.Deliver(EvStealGrant, 21, 21, 0, 24)
	a.Ran(30, 35, 31, CauseHandler)
	a.Ran(40, 50, 32, CauseSync)
	a.Ran(50, 60, 45, CauseToken)
	a.Ran(60, 61, 60, CauseSteal)
	a.Sent(100)
	return f, fired
}

// TestNodeAcctFillsFields: each method counts and traces what its comment
// says, and with a nil sink it counts the same and emits nothing.
func TestNodeAcctFillsFields(t *testing.T) {
	var log eventLog
	a := &NodeAcct{Node: 4, Sink: SinkOf(&log), Checksum: manna.ChecksumBytes}
	a.Reset(true)
	f, fired := acctScript(a)
	if fired[0] != nil || fired[1] == nil {
		t.Errorf("Signal returned %v, want nil then the enabled body", fired)
	}
	if !f.Sanitized() || !slices.Equal(a.San.frames, []*Frame{f}) {
		t.Error("Signal did not put the frame in the node's ledger")
	}
	want := eventLog{
		{Time: 5, Node: 4, Peer: 3, Kind: EvSyncSignal},
		{Time: 6, Node: 4, Peer: 2, Kind: EvSyncSignal},
		{Time: 7, Node: 4, Peer: 1, Kind: EvPutSend, Bytes: 16},
		{Time: 8, Node: 4, Peer: NoPeer, Kind: EvTokenSpawn, Bytes: 24},
		{Time: 20, Node: 4, Peer: 1, Kind: EvGetDeliver, Bytes: 8, Dur: 11},
		{Time: 21, Node: 4, Peer: 0, Kind: EvStealGrant, Bytes: 24},
		{Time: 30, Node: 4, Peer: NoPeer, Kind: EvHandlerRun, Dur: 5, Cause: CauseHandler},
		{Time: 40, Node: 4, Peer: NoPeer, Kind: EvThreadRun, Dur: 10, Wait: 8, Cause: CauseSync},
		{Time: 50, Node: 4, Peer: NoPeer, Kind: EvThreadRun, Dur: 10, Wait: 5, Cause: CauseToken},
		{Time: 60, Node: 4, Peer: NoPeer, Kind: EvThreadRun, Dur: 1, Cause: CauseSteal},
	}
	if !slices.Equal(log, want) {
		t.Errorf("events\n got %+v\nwant %+v", log, want)
	}
	wantStats := NodeStats{Syncs: 2, ThreadsRun: 3, TokensRun: 2, TokensStolen: 1,
		MsgsSent: 1, BytesSent: 100 + manna.HeaderBytes + manna.ChecksumBytes}
	if a.Stats != wantStats {
		t.Errorf("counters\n got %+v\nwant %+v", a.Stats, wantStats)
	}
	if w := a.Sent(0); w != manna.HeaderBytes+manna.ChecksumBytes {
		t.Errorf("an empty message is %d bytes on the wire, want header and checksum", w)
	}

	untraced := &NodeAcct{Node: 4, Checksum: manna.ChecksumBytes}
	untraced.Reset(false)
	acctScript(untraced)
	if untraced.Stats != wantStats {
		t.Errorf("untraced counters\n got %+v\nwant %+v", untraced.Stats, wantStats)
	}
	a.Reset(false)
	if a.Stats != (NodeStats{}) || len(a.San.frames) != 0 {
		t.Errorf("Reset left %+v and %d ledgered frames", a.Stats, len(a.San.frames))
	}
}

// TestPlaceToken: round-robin deals from the node's cursor, random draws
// once from the node's stream, and the pooling balancers draw nothing.
func TestPlaceToken(t *testing.T) {
	rr := 0
	var got []NodeID
	for range 5 {
		to, ok := PlaceToken(BalanceRoundRobin, 3, nil, &rr)
		if !ok {
			t.Fatal("round-robin placed nothing")
		}
		got = append(got, to)
	}
	if !slices.Equal(got, []NodeID{0, 1, 2, 0, 1}) || rr != 5 {
		t.Errorf("round-robin placed %v, cursor %d", got, rr)
	}
	rng, ref := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for range 5 {
		to, ok := PlaceToken(BalanceRandomPlace, 7, func() *rand.Rand { return rng }, &rr)
		if want := NodeID(ref.Intn(7)); !ok || to != want || rr != 5 {
			t.Errorf("random placed %d (%v), want %d", to, ok, want)
		}
	}
	for _, b := range []Balancer{BalanceSteal, BalanceNone} {
		if _, ok := PlaceToken(b, 3, func() *rand.Rand { t.Fatal("drew"); return nil }, &rr); ok || rr != 5 {
			t.Errorf("balancer %d placed a token", b)
		}
	}
	if ThreadDeliver(CauseToken) != EvTokenDeliver || ThreadDeliver(CauseInvoke) != EvInvokeDeliver {
		t.Error("ThreadDeliver maps the wrong kinds")
	}
}

// lastSink keeps only the last event, so emitting allocates nothing.
type lastSink struct{ last Event }

func (s *lastSink) Event(e Event) { s.last = e }

// TestNodeAcctAllocatesNothing: no method allocates, traced or not.
func TestNodeAcctAllocatesNothing(t *testing.T) {
	for _, sink := range []Tracer{nil, &lastSink{}} {
		a := &NodeAcct{Node: 1, Sink: SinkOf(sink)}
		f := NewFrame(1, 1, 1).SetThread(0, body)
		f.InitSync(0, 2, 2, 0)
		rng, rr := rand.New(rand.NewSource(1)), 0
		n := testing.AllocsPerRun(100, func() {
			a.Signal(1, 0, f, 0)
			a.Issue(EvInvokeSend, 2, 0, 8)
			a.Deliver(ThreadDeliver(CauseInvoke), 3, 2, 0, 8)
			a.Ran(4, 5, 3, CauseInvoke)
			a.Sent(8)
			PlaceToken(BalanceRandomPlace, 4, func() *rand.Rand { return rng }, &rr)
		})
		if n != 0 {
			t.Errorf("sink %T: %v allocations per operation set, want 0", sink, n)
		}
	}
}

// BenchmarkNodeAcctSignal times the signal path, untraced: a two-count
// slot, so every second signal fires and resets it.
func BenchmarkNodeAcctSignal(b *testing.B) {
	a := &NodeAcct{}
	f := NewFrame(0, 1, 1).SetThread(0, body)
	f.InitSync(0, 2, 2, 0)
	var at sim.Time
	for b.Loop() {
		at++
		a.Signal(at, 1, f, 0)
	}
}
