package critpath

import (
	"math"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/obs"
	"earth/internal/sim"
)

// workload exercises every causal edge the walk follows: token
// placement and stealing, sync-enabled threads, a remote Invoke, a Post
// handler and a remote Get.
func workload(c earth.Ctx) {
	f := earth.NewFrame(0, 1, 1)
	f.InitSync(0, 4, 0, 0)
	f.SetThread(0, func(c earth.Ctx) { c.Compute(20 * sim.Microsecond) })
	for i := 0; i < 4; i++ {
		c.Token(16, func(c earth.Ctx) {
			c.Compute(50 * sim.Microsecond)
			c.Put(0, 8, func() {}, f, 0)
		})
	}
	c.Invoke(1, 8, func(c earth.Ctx) {
		src := new(float64)
		*src = 2.5
		var v float64
		earth.GetSyncF64(c, 2, src, &v, nil, 0)
	})
	c.Post(2, 8, func(c earth.Ctx) { c.Compute(5 * sim.Microsecond) })
}

func runTraced(t *testing.T, cfg earth.Config) (*Analysis, *earth.Stats) {
	t.Helper()
	rec := obs.NewRecorder()
	cfg.Tracer = rec
	rt := simrt.New(cfg)
	st := rt.Run(workload)
	return Analyze(rec.Events(), len(st.Nodes), st.Elapsed), st
}

func TestNodeBreakdownsSumExactlyToMakespan(t *testing.T) {
	a, st := runTraced(t, earth.Config{Nodes: 4, Seed: 7})
	if a.Makespan != st.Elapsed {
		t.Fatalf("makespan %v != elapsed %v", a.Makespan, st.Elapsed)
	}
	for n, b := range a.Nodes {
		if got := b.Total(); got != a.Makespan {
			t.Errorf("node %d attribution sums to %v, want exactly %v (%+v)", n, got, a.Makespan, b)
		}
	}
	if got, want := a.Total.Total(), sim.Time(len(a.Nodes))*a.Makespan; got != want {
		t.Errorf("machine total %v, want %v", got, want)
	}
	sum := 0.0
	for _, f := range a.Total.Fractions() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %.12f, want 1±1e-9", sum)
	}
	if a.Total[Compute] == 0 {
		t.Error("no compute attributed")
	}
}

func TestCriticalPathPartitionsMakespan(t *testing.T) {
	a, _ := runTraced(t, earth.Config{Nodes: 4, Seed: 7})
	if len(a.Path) == 0 {
		t.Fatal("empty critical path")
	}
	if a.Path[0].Start != 0 {
		t.Errorf("path starts at %v, want 0", a.Path[0].Start)
	}
	if end := a.Path[len(a.Path)-1].End; end != a.Makespan {
		t.Errorf("path ends at %v, want %v", end, a.Makespan)
	}
	for i, s := range a.Path {
		if s.Dur() <= 0 {
			t.Errorf("segment %d has non-positive duration: %+v", i, s)
		}
		if i > 0 && s.Start != a.Path[i-1].End {
			t.Errorf("segment %d not contiguous: prev end %v, start %v", i, a.Path[i-1].End, s.Start)
		}
		if s.Node < 0 || int(s.Node) >= len(a.Nodes) {
			t.Errorf("segment %d on out-of-range node %d", i, s.Node)
		}
	}
	if got := a.PathBreakdown.Total(); got != a.Makespan {
		t.Errorf("path breakdown sums to %v, want %v", got, a.Makespan)
	}
	if a.PathBreakdown[Compute] == 0 {
		t.Error("critical path has no compute")
	}
	if k := a.TopSegments(3); len(k) != 3 {
		t.Errorf("TopSegments(3) returned %d", len(k))
	} else if k[0].Dur() < k[2].Dur() {
		t.Errorf("TopSegments not sorted by duration: %v < %v", k[0].Dur(), k[2].Dur())
	}
}

func TestAnalysisDeterministicAcrossRuns(t *testing.T) {
	a, _ := runTraced(t, earth.Config{Nodes: 4, Seed: 7})
	b, _ := runTraced(t, earth.Config{Nodes: 4, Seed: 7})
	if ra, rb := a.Render(), b.Render(); ra != rb {
		t.Errorf("same-seed renders differ:\n--- a ---\n%s--- b ---\n%s", ra, rb)
	}
}

func TestSyntheticSyncAttribution(t *testing.T) {
	// Node 0 computes [0,100); its sync signal lands on node 1 at 110;
	// node 1's thread becomes ready at 110 and runs [120,200).
	events := []earth.Event{
		{Time: 0, Dur: 100, Node: 0, Peer: earth.NoPeer, Kind: earth.EvThreadRun, Cause: earth.CauseSpawn},
		{Time: 110, Node: 1, Peer: 0, Kind: earth.EvSyncSignal},
		{Time: 120, Dur: 80, Wait: 10, Node: 1, Peer: earth.NoPeer, Kind: earth.EvThreadRun, Cause: earth.CauseSync},
	}
	a := Analyze(events, 2, 200)
	want0 := Breakdown{Compute: 100, Idle: 100}
	if a.Nodes[0] != want0 {
		t.Errorf("node 0 = %+v, want %+v", a.Nodes[0], want0)
	}
	want1 := Breakdown{Compute: 80, Comm: 110, Sched: 10}
	if a.Nodes[1] != want1 {
		t.Errorf("node 1 = %+v, want %+v", a.Nodes[1], want1)
	}
	// Critical path: node1 compute [120,200), queue [110,120), sync
	// transit on node 0 [100,110), node0 compute [0,100).
	want := Breakdown{Compute: 180, Comm: 10, Sched: 10}
	if a.PathBreakdown != want {
		t.Errorf("path breakdown = %+v, want %+v\npath: %+v", a.PathBreakdown, want, a.Path)
	}
}

func TestSyntheticCrashAttribution(t *testing.T) {
	// Node 1 dies at 50 (detected at 80 on survivor 0, lease 30); its
	// token is re-dispatched to node 0 and runs [90,100).
	events := []earth.Event{
		{Time: 0, Dur: 40, Node: 1, Peer: earth.NoPeer, Kind: earth.EvThreadRun, Cause: earth.CauseSpawn},
		{Time: 80, Dur: 30, Node: 0, Peer: 1, Kind: earth.EvNodeDown, Cause: earth.CauseCrash},
		{Time: 80, Node: 0, Peer: 1, Kind: earth.EvWorkReassigned, Cause: earth.CauseCrash},
		{Time: 90, Dur: 10, Wait: 10, Node: 0, Peer: earth.NoPeer, Kind: earth.EvThreadRun, Cause: earth.CauseToken},
	}
	a := Analyze(events, 2, 100)
	if got := a.Nodes[1][Recovery]; got != 50 {
		t.Errorf("dead node recovery time = %v, want 50 (death at 50, makespan 100)", got)
	}
	if got := a.Nodes[1].Total(); got != 100 {
		t.Errorf("dead node total = %v, want 100", got)
	}
	// Survivor's pre-dispatch gap contains recovery markers, so the
	// wait portion is charged to Recovery, not Sched.
	if a.Nodes[0][Recovery] == 0 {
		t.Errorf("survivor has no recovery time: %+v", a.Nodes[0])
	}
	foundRecovery := false
	for _, s := range a.Path {
		if s.Cat == Recovery {
			foundRecovery = true
		}
	}
	if !foundRecovery {
		t.Errorf("critical path misses the crash re-dispatch: %+v", a.Path)
	}
}

func TestCrashRunAttributionIntegration(t *testing.T) {
	rec := obs.NewRecorder()
	rt := simrt.New(earth.Config{
		Nodes: 4, Seed: 3, Tracer: rec,
		Balancer: earth.BalanceSteal,
		Faults: &faults.Plan{Seed: 3, Crash: []faults.Crash{
			{Node: 2, At: 200 * sim.Microsecond}}},
	})
	st := rt.Run(func(c earth.Ctx) {
		var spawn func(c earth.Ctx, depth int)
		spawn = func(c earth.Ctx, depth int) {
			c.Compute(40 * sim.Microsecond)
			if depth == 0 {
				return
			}
			for i := 0; i < 2; i++ {
				c.Token(16, func(c earth.Ctx) { spawn(c, depth-1) })
			}
		}
		spawn(c, 5)
	})
	a := Analyze(rec.Events(), len(st.Nodes), st.Elapsed)
	for n, b := range a.Nodes {
		if got := b.Total(); got != a.Makespan {
			t.Errorf("node %d attribution sums to %v, want %v", n, got, a.Makespan)
		}
	}
	if a.Nodes[2][Recovery] == 0 {
		t.Errorf("crashed node 2 has no recovery time: %+v", a.Nodes[2])
	}
	if got := a.PathBreakdown.Total(); got != a.Makespan {
		t.Errorf("path breakdown sums to %v, want %v", got, a.Makespan)
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	if a := Analyze(nil, 2, 0); len(a.Path) != 0 || a.Total.Total() != 0 {
		t.Errorf("zero-makespan analysis not empty: %+v", a)
	}
	a := Analyze(nil, 2, 100)
	for n, b := range a.Nodes {
		if b != (Breakdown{Idle: 100}) {
			t.Errorf("node %d of empty run = %+v, want all idle", n, b)
		}
	}
	if len(a.Path) != 1 || a.Path[0].Cat != Idle || a.Path[0].Dur() != 100 {
		t.Errorf("empty-run path = %+v, want one idle segment", a.Path)
	}
	// Events referencing out-of-range nodes are dropped, not fatal.
	b := Analyze([]earth.Event{
		{Time: 0, Dur: 10, Node: 99, Kind: earth.EvThreadRun},
		{Time: 0, Dur: 10, Node: -1, Kind: earth.EvThreadRun},
	}, 1, 50)
	if b.Nodes[0] != (Breakdown{Idle: 50}) {
		t.Errorf("out-of-range events leaked into attribution: %+v", b.Nodes[0])
	}
}
