package faults

import (
	"math"
	"strings"
	"testing"

	"earth/internal/sim"
)

func TestParsePartitionRoundTrip(t *testing.T) {
	spec := "corrupt=0.05,partition=0.1|2.3@200µs-2ms,seed=7"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Corrupt != 0.05 {
		t.Errorf("corrupt = %v", p.Corrupt)
	}
	if len(p.Partition) != 1 {
		t.Fatalf("partitions = %+v", p.Partition)
	}
	pt := p.Partition[0]
	if pt.From != 200*sim.Microsecond || pt.To != 2*sim.Millisecond {
		t.Errorf("window = [%v,%v)", pt.From, pt.To)
	}
	if len(pt.Groups[0]) != 2 || pt.Groups[0][0] != 0 || pt.Groups[0][1] != 1 ||
		len(pt.Groups[1]) != 2 || pt.Groups[1][0] != 2 || pt.Groups[1][1] != 3 {
		t.Errorf("groups = %+v", pt.Groups)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Errorf("String round trip: %q vs %q", p.String(), p2.String())
	}
}

func TestParsePartitionSortsGroups(t *testing.T) {
	p, err := Parse("partition=3.1|0.2@1ms-2ms")
	if err != nil {
		t.Fatal(err)
	}
	pt := p.Partition[0]
	if pt.Groups[0][0] != 1 || pt.Groups[0][1] != 3 || pt.Groups[1][0] != 0 || pt.Groups[1][1] != 2 {
		t.Errorf("groups not sorted: %+v", pt.Groups)
	}
}

func TestParsePartitionErrors(t *testing.T) {
	for _, spec := range []string{
		"corrupt=1.5", "corrupt=-0.1", "corrupt=NaN",
		"partition=0.1@1ms-2ms",                                  // one group
		"partition=0.1|@1ms-2ms",                                 // empty group
		"partition=0.1|2.3@2ms-1ms",                              // empty window
		"partition=0.1|2.3@1ms",                                  // no range
		"partition=0.1|1.2@1ms-2ms",                              // node in both groups
		"partition=0.0|1.2@1ms-2ms",                              // node listed twice
		"partition=*|1.2@1ms-2ms",                                // wildcard not allowed
		"partition=0.x|1.2@1ms-2ms",                              // junk node
		"partition=0.1|2.3@1ms-2ms,partition=0.2|1.3@1500µs-3ms", // overlapping, both cut 0-3 etc.
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
	// Overlap in time is fine when the cut link sets are disjoint.
	if _, err := Parse("partition=0.1|2.3@1ms-2ms,partition=4.5|6.7@1500µs-3ms"); err != nil {
		t.Errorf("disjoint overlapping partitions rejected: %v", err)
	}
	// Back-to-back windows on the same link are fine ([From,To) half-open).
	if _, err := Parse("partition=0.1|2.3@1ms-2ms,partition=0.1|2.3@2ms-3ms"); err != nil {
		t.Errorf("adjacent windows rejected: %v", err)
	}
	// Validate alone holds the rules on values, so a plan built as a
	// literal gets them too, including one the grammar cannot spell: no
	// window starts before 0.
	for _, p := range []Plan{
		{Partition: []Partition{{From: -1, To: 2, Groups: [2][]int{{0}, {1}}}}},
		{Partition: []Partition{{From: 0, To: 2, Groups: [2][]int{{0}, {-1}}}}},
		{Pause: []Window{{Node: 1, From: -1, To: 2}}},
		{Degrade: []Window{{Node: -1, From: -1, To: 2, Factor: 2}}},
		{Degrade: []Window{{Node: -1, From: 0, To: 2, Factor: math.NaN()}}},
		{Crash: []Crash{{Node: -1, At: 1}}},
		{Drop: 1},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
}

func TestPartitionMinority(t *testing.T) {
	cases := []struct {
		spec string
		want []int
	}{
		{"partition=0.1.2|3.4@1ms-2ms", []int{3, 4}}, // smaller group fences
		{"partition=0.1|2.3@1ms-2ms", []int{2, 3}},   // tie: side without node 0 fences
		{"partition=1.3|2.4@1ms-2ms", []int{2, 4}},   // tie: lowest id (1) survives
	}
	for _, c := range cases {
		p, err := Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Partition[0].Minority()
		if len(got) != len(c.want) {
			t.Errorf("%s: minority = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: minority = %v, want %v", c.spec, got, c.want)
				break
			}
		}
	}
}

func TestPartitionUnblock(t *testing.T) {
	p, err := Parse("partition=0.1|2.3@1ms-2ms")
	if err != nil {
		t.Fatal(err)
	}
	// Cross-group link during the window: held to the heal.
	if ub := p.PartitionUnblock(1500*sim.Microsecond, 0, 2); ub != 2*sim.Millisecond {
		t.Errorf("cut link unblock = %v", ub)
	}
	// Intra-group link during the window: unaffected.
	if ub := p.PartitionUnblock(1500*sim.Microsecond, 0, 1); ub != 1500*sim.Microsecond {
		t.Errorf("intra-group unblock = %v", ub)
	}
	// Cross-group link outside the window: unaffected.
	if ub := p.PartitionUnblock(2*sim.Millisecond, 0, 2); ub != 2*sim.Millisecond {
		t.Errorf("post-heal unblock = %v", ub)
	}
	// Links touching unlisted nodes: unaffected.
	if ub := p.PartitionUnblock(1500*sim.Microsecond, 0, 5); ub != 1500*sim.Microsecond {
		t.Errorf("unlisted-node unblock = %v", ub)
	}
}

func TestPartitionFences(t *testing.T) {
	p, err := Parse("partition=0.1|2.3@1ms-3ms")
	if err != nil {
		t.Fatal(err)
	}
	lease := sim.Millisecond
	fences := p.PartitionFences(4, lease)
	if len(fences) != 2 {
		t.Fatalf("fences = %+v", fences)
	}
	for i, want := range []Fence{
		{Node: 2, At: 2 * sim.Millisecond, Heal: 3 * sim.Millisecond},
		{Node: 3, At: 2 * sim.Millisecond, Heal: 3 * sim.Millisecond},
	} {
		if fences[i] != want {
			t.Errorf("fence[%d] = %+v, want %+v", i, fences[i], want)
		}
	}
	// A window shorter than the lease produces no wrong verdicts.
	short, _ := Parse("partition=0.1|2.3@1ms-1500µs")
	if f := short.PartitionFences(4, lease); len(f) != 0 {
		t.Errorf("short window fences = %+v", f)
	}
	// Minority nodes beyond the machine size contribute no fences.
	if f := p.PartitionFences(3, lease); len(f) != 1 || f[0].Node != 2 {
		t.Errorf("clipped fences = %+v", f)
	}
	// A node fenced again before it rejoins stays fenced until the later
	// window heals: one fence, not two.
	twice, _ := Parse("partition=0|1@0s-3ms,partition=2.3|1@1ms-4ms")
	if f := twice.PartitionFences(4, lease); len(f) != 1 || f[0] != (Fence{Node: 1, At: lease, Heal: 4 * sim.Millisecond}) {
		t.Errorf("overlapping fences of one node = %+v", f)
	}
}

// TestFencesCovering pins the one fence-span predicate the engines and
// CheckFences share: a span is closed at its fence instant, open at its
// heal, and a node fenced by two sequential windows is covered by each
// span and by neither gap.
func TestFencesCovering(t *testing.T) {
	p, err := Parse("partition=0.1.3|2@1ms-3ms,partition=0.1|2.3@5ms-7ms")
	if err != nil {
		t.Fatal(err)
	}
	fences := p.PartitionFences(4, sim.Millisecond) // node 2: [2ms,3ms) and [6ms,7ms); node 3: [6ms,7ms)
	ms := sim.Millisecond
	for _, c := range []struct {
		node int
		at   sim.Time
		want bool
	}{
		{2, 2*ms - 1, false}, // the partition has started, the lease has not run out
		{2, 2 * ms, true},    // at == At
		{2, 3*ms - 1, true},
		{2, 3 * ms, false}, // at == Heal
		{2, 4 * ms, false}, // between the node's two fences
		{2, 6 * ms, true},  // repeated node: second span
		{2, 7 * ms, false},
		{3, 2 * ms, false}, // node 3 is majority-side in the first window
		{3, 6 * ms, true},
		{0, 6 * ms, false}, // never fenced
		{9, 6 * ms, false}, // not in the machine
	} {
		if got := fences.Covering(c.node, c.at); got != c.want {
			t.Errorf("Covering(%d, %v) = %v, want %v", c.node, c.at, got, c.want)
		}
	}
	if Fences(nil).Covering(0, 0) {
		t.Error("an empty schedule covers node 0")
	}
}

func TestCheckFencesRejectsNoSurvivor(t *testing.T) {
	lease := sim.Millisecond
	// Simultaneous fencing of every node: 0.1|2.3 fences {2,3} while
	// 2.3|0.1... can't overlap on the same links. Use crash + fence:
	// nodes 0,1 crash, nodes 2,3 fence past the lease — nobody left.
	p, err := Parse("crash=0@0s,crash=1@0s,partition=0.1|2.3@1ms-3ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFences(4, lease); err == nil ||
		!strings.Contains(err.Error(), "no survivor") {
		t.Errorf("CheckFences = %v, want no-survivor rejection", err)
	}
	// Sequential partitions that eventually fence every node: ownership
	// transfer is permanent, so the union check must reject even though
	// some node is alive at every instant. ({2,3} fence in the first
	// window, then {0} and {1} each land in a singleton minority.)
	p2, err := Parse("partition=0.1|2.3@1ms-3ms,partition=0|1.2.3@4ms-6ms,partition=1|0.2.3@7ms-9ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.CheckFences(4, lease); err == nil ||
		!strings.Contains(err.Error(), "stay clean") {
		t.Errorf("CheckFences = %v, want permanent-ownership rejection", err)
	}
	// The same plan on a larger machine has clean unlisted nodes: fine.
	if err := p2.CheckFences(6, lease); err != nil {
		t.Errorf("CheckFences on 6 nodes: %v", err)
	}
	// A disabled lease (clean RetryPolicy) never fences.
	if err := p2.CheckFences(4, -1); err != nil {
		t.Errorf("CheckFences with lease -1: %v", err)
	}
}

func TestCorruptVerdicts(t *testing.T) {
	plan := &Plan{Seed: 11, Corrupt: 0.3}
	in := NewInjector(plan, 1)
	const n = 4000
	total := 0
	for i := 0; i < n; i++ {
		v := in.Next(8)
		total += v.Corrupts
	}
	if total == 0 {
		t.Fatal("corrupt=0.3 drew no corruptions")
	}
	// Determinism: a reset injector replays the same stream.
	in.Reset()
	total2 := 0
	for i := 0; i < n; i++ {
		total2 += in.Next(8).Corrupts
	}
	if total2 != total {
		t.Errorf("corrupt stream not deterministic: %d vs %d", total, total2)
	}
	// The combined drop+corrupt chain caps at maxDrops attempts.
	both := NewInjector(&Plan{Seed: 3, Drop: 0.5, Corrupt: 0.5}, 1)
	for i := 0; i < n; i++ {
		v := both.Next(4)
		if v.Drops+v.Corrupts > 4 {
			t.Fatalf("retry chain exceeds cap: %+v", v)
		}
	}
}
