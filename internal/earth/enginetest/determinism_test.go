package enginetest

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/pin"
	"earth/internal/sim"
)

// Simulator determinism: a simrt run is a function of its Config and its
// program and of nothing else, down to the byte. TestEngineBytesPinned
// holds the engine to the bytes it produced at the commit before its run
// loop was reduced to one event queue — clean, chaotic, crash-stop,
// partitioned, composed, sanitized, coalesced and not — so an engine change
// that moves a simulated byte fails here first; every simrt cell of
// TestFaultMatrix builds two machines from one Config and requires the same
// bytes of both.

func TestMain(m *testing.M) { os.Exit(pin.Main(m)) }

// eventLog is a minimal Tracer buffering the run's event stream.
type eventLog struct{ evs []earth.Event }

func (l *eventLog) Event(e earth.Event) { l.evs = append(l.evs, e) }

// simOut is one traced simrt run: its statistics and event stream, and
// both marshalled for byte comparison.
type simOut struct {
	st           *earth.Stats
	evs          []earth.Event
	stats, trace []byte
}

// simRun runs body on a fresh simrt machine built from cfg, with a
// recording tracer installed.
func simRun(t *testing.T, cfg earth.Config, body earth.ThreadBody) simOut {
	t.Helper()
	log := &eventLog{}
	cfg.Tracer = log
	st := simrt.New(cfg).Run(body)
	sj, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	tj, err := json.Marshal(log.evs)
	if err != nil {
		t.Fatal(err)
	}
	return simOut{st: st, evs: log.evs, stats: sj, trace: tj}
}

// sameBytes fails t when got's stats or trace differ from want's, naming
// the first differing field or event (got's value first).
func sameBytes(t *testing.T, what string, got, want simOut) {
	t.Helper()
	if len(want.trace) <= len("[]") {
		t.Fatal("baseline run produced no trace events")
	}
	if d := pin.FirstDiff(got.stats, want.stats); d != "" {
		t.Errorf("%s vs the baseline: stats JSON diverges at %s", what, d)
	}
	if d := pin.FirstDiff(got.trace, want.trace); d != "" {
		t.Errorf("%s vs the baseline: trace diverges at %s", what, d)
	}
}

// mixProg exercises every split-phase operation class. Each node owns
// cells[node]; a fan-out tree of Invoke/Token/Post hops reaches leaves
// that Get a remote cell, then Put a contribution into the node-0
// accumulator behind one fan-in slot. All cross-node state is
// owner-serialised: closures only touch the state of the node they
// execute on.
func mixProg(nodes int, total *int, done *bool) (earth.ThreadBody, int) {
	const depth, branch = 4, 2
	leaves := 1
	for i := 0; i < depth; i++ {
		leaves *= branch
	}
	want := 0
	for i := 0; i < leaves; i++ {
		want += 100 + i + i%nodes // leaf value + fetched cell value
	}
	body := func(c earth.Ctx) {
		cells := make([]int, nodes)
		seeded := earth.NewFrame(0, 1, 1)
		seeded.InitSync(0, nodes, 1, 0)
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, leaves, 0, 0)
		f.SetThread(0, func(earth.Ctx) { *done = true })
		var descend func(c earth.Ctx, d, idx int)
		descend = func(c earth.Ctx, d, idx int) {
			if d == 0 {
				owner := earth.NodeID(idx % nodes)
				var fetched int
				// Get is split-phase: the contribution thread is gated
				// behind a frame slot the Get signals on completion.
				lf := earth.NewFrame(c.Node(), 1, 1)
				lf.InitSync(0, 1, 0, 0)
				v := 100 + idx
				lf.SetThread(0, func(c earth.Ctx) {
					c.Put(0, 8, func() { *total += v + fetched }, f, 0)
				})
				c.Get(owner, 8, func() func() {
					cv := cells[owner]
					return func() { fetched = cv }
				}, lf, 0)
				c.Compute(20 * sim.Microsecond)
				return
			}
			for i := 0; i < branch; i++ {
				child := idx*branch + i
				sub := func(c earth.Ctx) {
					c.Compute(15 * sim.Microsecond)
					descend(c, d-1, child)
				}
				switch child % 3 {
				case 0:
					c.Invoke(earth.NodeID(child%nodes), 8, sub)
				case 1:
					c.Token(16, sub)
				default:
					c.Post(earth.NodeID(child%nodes), 8, sub)
				}
			}
		}
		seeded.SetThread(0, func(c earth.Ctx) { descend(c, depth, 0) })
		for i := 0; i < nodes; i++ {
			i := i
			c.Put(earth.NodeID(i), 8, func() { cells[i] = i }, seeded, 0)
		}
	}
	return body, want
}

// mixCases is the scenario axis of the determinism table: a clean
// steal-balanced run with utilisation sampling, a round-robin run with
// compute jitter, a chaos plan (drops, duplicates, reorder delays) and a
// crash-stop plan layered over message faults.
var mixCases = []struct {
	name string
	cfg  func() earth.Config
}{
	{"clean-steal", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 11, Balancer: earth.BalanceSteal,
			UtilSamplePeriod: 50 * sim.Microsecond}
	}},
	{"clean-roundrobin", func() earth.Config {
		return earth.Config{Nodes: 6, Seed: 12, Balancer: earth.BalanceRoundRobin,
			JitterPct: 5}
	}},
	{"chaos", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 13, Balancer: earth.BalanceSteal,
			Faults: &faults.Plan{Seed: 13, Drop: 0.08, Dup: 0.05, Reorder: 0.1,
				Window: 150 * sim.Microsecond}}
	}},
	{"crash", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 14, Balancer: earth.BalanceSteal,
			Faults: &faults.Plan{Seed: 14, Drop: 0.05, Dup: 0.02,
				Crash: []faults.Crash{
					{Node: 2, At: 150 * sim.Microsecond},
					{Node: 5, At: 400 * sim.Microsecond},
				}}}
	}},
}

// mixRun executes the mixed-op program under cfg, sanitizer on, and checks
// its answer: the pinned runs must stay contract-clean.
func mixRun(t *testing.T, cfg earth.Config) simOut {
	t.Helper()
	cfg.Sanitize = true
	var total int
	var done bool
	body, want := mixProg(cfg.Nodes, &total, &done)
	out := simRun(t, cfg, body)
	if total != want || !done {
		t.Fatalf("total=%d done=%v, want %d", total, done, want)
	}
	if !out.st.Sanitize.Clean() {
		t.Fatalf("sanitizer findings:\n%s", out.st.Sanitize)
	}
	return out
}

// pinnedRun is one named run whose bytes TestEngineBytesPinned pins.
type pinnedRun struct {
	name string
	run  func(*testing.T) simOut
}

// pinnedRuns lists the mixed-op scenarios, then each partition plan and
// each sanitizer-report program with coalescing off and on.
func pinnedRuns() []pinnedRun {
	var runs []pinnedRun
	for _, tc := range mixCases {
		runs = append(runs, pinnedRun{"mix/" + tc.name, func(t *testing.T) simOut { return mixRun(t, tc.cfg()) }})
	}
	for _, coal := range []bool{false, true} {
		for _, pc := range partPlans {
			runs = append(runs, pinnedRun{"partition/" + pc.name + "/" + coalName(coal),
				func(t *testing.T) simOut { return pc.run(t, coal) }})
		}
		for _, bug := range []bool{false, true} {
			runs = append(runs, pinnedRun{fmt.Sprintf("sanitize/bug=%v/%s", bug, coalName(coal)),
				func(t *testing.T) simOut { return sanReportRun(t, bug, coal) }})
		}
	}
	return runs
}

// coalName is the subtest name of one coalescing setting.
func coalName(on bool) string {
	if on {
		return "coalesce-on"
	}
	return "coalesce-off"
}

// TestEngineBytesPinned holds every pinned run's stats and trace JSON to
// testdata/outputs.sha256, whose entries were recorded at commit bb06ef6 —
// the last one whose simrt could split a machine over shard workers — at
// its default of one shard.
func TestEngineBytesPinned(t *testing.T) {
	for _, r := range pinnedRuns() {
		t.Run(r.name, func(t *testing.T) {
			out := r.run(t)
			pin.Bytes(t, "stats.json", out.stats)
			pin.Bytes(t, "trace.json", out.trace)
		})
	}
}

// TestShardsFieldIgnored: earth.Config.Shards is deprecated and nothing
// reads it, but bench/ still sets it — its features workload requires a
// Shards: 2 storm to report the statistics of Shards: 1. This is that
// requirement, on a faulted run, for as long as the field exists.
func TestShardsFieldIgnored(t *testing.T) {
	cfg := mixCases[2].cfg() // chaos
	base := mixRun(t, cfg)
	cfg.Shards = 4
	sameBytes(t, "Shards: 4", mixRun(t, cfg), base)
}
