package enginetest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// Simulator determinism: a simrt run is a function of its Config and its
// program and of nothing else, down to the byte. TestEngineBytesPinned
// holds the engine to the bytes it produced at the commit before its run
// loop was reduced to one event queue — clean, chaotic, crash-stop,
// partitioned, composed, sanitized, coalesced and not — so an engine change
// that moves a simulated byte fails here first; TestRunTwiceByteIdentical
// builds two machines from one Config and requires the same bytes of both.

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

// sameBytes fails t when got's stats or trace differ from want's.
func sameBytes(t *testing.T, what string, got, want simOut) {
	t.Helper()
	if len(want.trace) <= len("[]") {
		t.Fatal("baseline run produced no trace events")
	}
	if !bytes.Equal(got.stats, want.stats) {
		t.Errorf("%s: stats JSON diverges\n got: %s\nwant: %s", what, got.stats, want.stats)
	}
	if !bytes.Equal(got.trace, want.trace) {
		t.Errorf("%s: trace diverges (%d vs %d bytes): %s",
			what, len(got.trace), len(want.trace), firstTraceDiff(got.trace, want.trace))
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

// mixRun executes the mixed-op program under cfg, sanitizer on: the
// conformance tables must stay contract-clean.
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

// pinnedRun is one named run whose bytes TestEngineBytesPinned digests.
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

// pinnedDigests holds, per pinnedRuns name, the SHA-256 of the stats JSON
// and of the trace JSON the run produced at commit bb06ef6 — the last one
// whose simrt could split a machine over shard workers — at its default of
// one shard.
var pinnedDigests = map[string][2]string{
	"mix/clean-steal":                               {"72b608c981ae61b8956c60ec9204dfea9d0b09ec323c019328bfd562d7d1139f", "4ca207307727a9aa39b6413920ebcd83bdf77ed167ac2a12a3f6962df5643966"},
	"mix/clean-roundrobin":                          {"e6a453b92aa7975efe1ed16e5e397d8a276a25b7f6f20f3fc8158eb9de89672f", "0bed453992b63f7df6c0a07fc05d342287f4eced35c0644fec8c390d19523e94"},
	"mix/chaos":                                     {"986eb2f3da581120a123a32aa88099d7141eb835e423ef9e6aade10796d51f22", "6aa21f84e411cefd787121f7120f3b9d9a095db49a0af2a947d04ae98c389434"},
	"mix/crash":                                     {"24a6916a2fa03f9483498fe6c1f44aa34d11452691b6edc08a6ec83090e846e2", "a71263acf4965e285599e36b187df27da3f3391ed09e47fca9aa9bb3d21e6b77"},
	"partition/below-lease/coalesce-off":            {"d694bee5e3b25d89b04d6f6caec7465c3ea7ec151422c69f764069205039e376", "6412179f42a2fa15152611fee8ae0da4af2b416c249797fabfae2689376fc0d0"},
	"partition/above-lease/coalesce-off":            {"8abf5a1637ac5b9267eaa4d2c7a73de0459d61724cf027cca6405becd38bf991", "f1b68b557e487ccf512c8bfa0e84947ac54ac4930a2a2903420d043f030869f2"},
	"partition/partition-corrupt-drop/coalesce-off": {"982ac63ac6a5cff55fb7a1fa3cdb0ea19136d9f1f402d4bfe00351df2fa67022", "6927bb9ad8d47a9fd1e7058cebe4f774603171c1e168ab4ce7bbe3182afcb94b"},
	"partition/composed/coalesce-off":               {"28a224efabb133d0483ca5e85964eb1bf8e86d9a0fcbd291fdebe8fedec9a076", "758751632497e813de58665308c4596d55adfd7321a9e6cb399d4e7074ce4d05"},
	"sanitize/bug=false/coalesce-off":               {"72b608c981ae61b8956c60ec9204dfea9d0b09ec323c019328bfd562d7d1139f", "8fd1a6b12eabb01f2ea4eeb932d571ec6b6f8dfe2578e8d936a2804fb13b4f27"},
	"sanitize/bug=true/coalesce-off":                {"75002f17afe1a744235e2422015b0e68c29a95e52d8c9c261ef6adc3721d922d", "62bb8b1d02a23c5d28e0748025208abf933e6f531c2606263fb36a9155d4fc16"},
	"partition/below-lease/coalesce-on":             {"d694bee5e3b25d89b04d6f6caec7465c3ea7ec151422c69f764069205039e376", "45b0e1482b64fc68a42c84e9ae12ab5ccce27c6b3f64df91cf210d153112fc75"},
	"partition/above-lease/coalesce-on":             {"8abf5a1637ac5b9267eaa4d2c7a73de0459d61724cf027cca6405becd38bf991", "b6a645041d558d13d4343a9b680f4249d0e9c9d192a712b9f4876d80890906bd"},
	"partition/partition-corrupt-drop/coalesce-on":  {"982ac63ac6a5cff55fb7a1fa3cdb0ea19136d9f1f402d4bfe00351df2fa67022", "b648be9a8cabc78b31c128407c4dc7acb12e15b55dd90a3b0d2f62b7d76acdfe"},
	"partition/composed/coalesce-on":                {"28a224efabb133d0483ca5e85964eb1bf8e86d9a0fcbd291fdebe8fedec9a076", "51ee055a1e5e415bfb413cd5e148850ce13201462d176225275fd42c37d3cac1"},
	"sanitize/bug=false/coalesce-on":                {"58496d8fd392675696520de28513969c1239f304cb0c0de7bf85d346a19464ad", "6a4742b3f58a06db30656516939e5ea3e576afbf9f785734cb95d70079d8efe4"},
	"sanitize/bug=true/coalesce-on":                 {"75002f17afe1a744235e2422015b0e68c29a95e52d8c9c261ef6adc3721d922d", "62bb8b1d02a23c5d28e0748025208abf933e6f531c2606263fb36a9155d4fc16"},
}

func TestEngineBytesPinned(t *testing.T) {
	runs := pinnedRuns()
	if len(runs) != len(pinnedDigests) {
		t.Errorf("%d runs but %d pinned digests", len(runs), len(pinnedDigests))
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			out := r.run(t)
			got := [2]string{digest(out.stats), digest(out.trace)}
			if got == pinnedDigests[r.name] {
				return
			}
			// Not t.TempDir(): that is removed when the test returns, and the
			// files are for comparing by hand against the same run of an
			// older commit.
			dir, err := os.MkdirTemp("", "enginebytes-")
			if err != nil {
				t.Fatal(err)
			}
			for file, b := range map[string][]byte{"stats.json": out.stats, "trace.json": out.trace} {
				if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			t.Errorf("simulated bytes moved; this run's stats.json and trace.json are in %s\n got: %q: {%q, %q},\nwant: %q",
				dir, r.name, got[0], got[1], pinnedDigests[r.name])
		})
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestRunTwiceByteIdentical(t *testing.T) {
	for _, tc := range mixCases {
		t.Run(tc.name, func(t *testing.T) {
			sameBytes(t, "second machine", mixRun(t, tc.cfg()), mixRun(t, tc.cfg()))
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

// firstTraceDiff locates the first divergent byte for a readable failure.
func firstTraceDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			if hi > n {
				hi = n
			}
			return fmt.Sprintf("first diff at byte %d: %q vs %q", i, a[lo:hi], b[lo:hi])
		}
	}
	return fmt.Sprintf("length mismatch only (%d vs %d)", len(a), len(b))
}
