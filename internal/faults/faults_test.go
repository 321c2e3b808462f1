package faults

import (
	"slices"
	"testing"

	"earth/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "drop=0.05,dup=0.02,reorder=0.1,window=200µs,seed=7,pause=2@1ms-2ms,degrade=*@0s-5msx4"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.05 || p.Dup != 0.02 || p.Reorder != 0.1 {
		t.Errorf("probabilities: %+v", p)
	}
	if p.Window != 200*sim.Microsecond {
		t.Errorf("window = %v", p.Window)
	}
	if p.Seed != 7 {
		t.Errorf("seed = %d", p.Seed)
	}
	if len(p.Pause) != 1 || p.Pause[0] != (Window{From: sim.Millisecond, To: 2 * sim.Millisecond, Node: 2, Factor: 1}) {
		t.Errorf("pause = %+v", p.Pause)
	}
	if len(p.Degrade) != 1 || p.Degrade[0] != (Window{From: 0, To: 5 * sim.Millisecond, Node: -1, Factor: 4}) {
		t.Errorf("degrade = %+v", p.Degrade)
	}
	// String renders in the same grammar; parsing it again must be stable.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Errorf("String round trip: %q vs %q", p.String(), p2.String())
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	for _, spec := range []string{"", "none"} {
		p, err := Parse(spec)
		if err != nil || p.Enabled() {
			t.Errorf("Parse(%q) = %+v, %v; want disabled plan", spec, p, err)
		}
	}
	for _, spec := range []string{
		"drop=1.5", "drop=-0.1", "drop=NaN", "nonsense", "what=ever",
		"window=-5us", "pause=2@2ms-1ms", "degrade=*@0-1msx0.5",
		"pause=x@1ms-2ms", "degrade=*@1ms-2ms", "degrade=*@0-1msxNaN", "pause=1@1ms--2ms",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

// TestInjectorDeterminism is the foundation of byte-reproducible chaos
// runs: two injectors with the same plan, and one injector after Reset,
// must produce identical verdict streams.
func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{Seed: 42, Drop: 0.2, Dup: 0.1, Reorder: 0.3, Window: 50 * sim.Microsecond}
	a := NewInjector(plan, 1)
	b := NewInjector(plan, 99) // plan seed wins over the fallback
	const n = 2000
	va := make([]Verdict, n)
	for i := range va {
		va[i] = a.Next(8)
	}
	for i := 0; i < n; i++ {
		if v := b.Next(8); v != va[i] {
			t.Fatalf("verdict %d diverges across injectors: %+v vs %+v", i, v, va[i])
		}
	}
	a.Reset()
	for i := 0; i < n; i++ {
		if v := a.Next(8); v != va[i] {
			t.Fatalf("verdict %d diverges after Reset: %+v vs %+v", i, v, va[i])
		}
	}
}

// TestInjectorResetDrawsAsFresh: an injector reset after no draw, a few
// or a whole stream draws what a fresh one draws, with drops, dups,
// reorders, corruptions and jitter draws interleaved.
func TestInjectorResetDrawsAsFresh(t *testing.T) {
	plan := &Plan{Seed: 8, Drop: 0.3, Dup: 0.2, Reorder: 0.4, Corrupt: 0.3, Window: 50 * sim.Microsecond}
	draw := func(in *Injector, n int) []Verdict {
		vs := make([]Verdict, n)
		for i := range vs {
			vs[i] = in.Next(8)
			vs[i].Delay += sim.Time(in.Float64() * 1e6)
		}
		return vs
	}
	const n = 500
	fresh := draw(NewLaneInjector(plan, 1, 3), n)
	in := NewLaneInjector(plan, 1, 3)
	for _, k := range []int{0, 17, n} {
		in.Reset()
		draw(in, k)
		in.Reset()
		if got := draw(in, n); !slices.Equal(got, fresh) {
			t.Fatalf("after %d draws and a Reset: %v..., fresh %v...", k, got[:3], fresh[:3])
		}
	}
}

// TestInjectorResetAllocatesNothing: Reset reseeds the existing stream at
// the next draw instead of building a new source.
func TestInjectorResetAllocatesNothing(t *testing.T) {
	in := NewInjector(&Plan{Seed: 2, Drop: 0.5}, 1)
	in.Next(8)
	if n := testing.AllocsPerRun(100, func() { in.Reset(); in.Next(8) }); n != 0 {
		t.Errorf("Reset and a draw allocate %v times, want 0", n)
	}
}

// TestInjectorFallbackSeed: a plan without a seed of its own draws a
// different fault realisation per runtime seed.
func TestInjectorFallbackSeed(t *testing.T) {
	plan := &Plan{Drop: 0.3}
	a, b := NewInjector(plan, 1), NewInjector(plan, 2)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next(8) != b.Next(8) {
			same = false
			break
		}
	}
	if same {
		t.Error("different fallback seeds produced identical verdict streams")
	}
}

func TestInjectorRates(t *testing.T) {
	plan := &Plan{Seed: 3, Drop: 0.1, Dup: 0.05, Reorder: 0.2, Window: sim.Millisecond}
	in := NewInjector(plan, 0)
	const n = 50000
	var drops, dups, delays int
	for i := 0; i < n; i++ {
		v := in.Next(8)
		if v.Seq != uint64(i+1) {
			t.Fatalf("seq %d, want %d", v.Seq, i+1)
		}
		drops += v.Drops
		if v.Dup {
			dups++
		}
		if v.Delay > 0 {
			delays++
			if v.Delay > sim.Millisecond {
				t.Fatalf("delay %v beyond window", v.Delay)
			}
		}
	}
	within := func(name string, got int, want float64) {
		f := float64(got) / n
		if f < want*0.8 || f > want*1.2 {
			t.Errorf("%s rate = %.4f, want about %.4f", name, f, want)
		}
	}
	// E[drops per message] for p=0.1 is p/(1-p) ~ 0.111 with a generous cap.
	within("drop", drops, 0.1/(1-0.1))
	within("dup", dups, 0.05)
	within("reorder", delays, 0.2)
}

func TestInjectorMaxDropsCap(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Drop: 0.999}, 0)
	for i := 0; i < 100; i++ {
		if v := in.Next(3); v.Drops > 3 {
			t.Fatalf("drops %d beyond cap", v.Drops)
		}
	}
	if v := in.Next(0); v.Drops != 0 {
		t.Fatalf("maxDrops=0 still dropped %d times", v.Drops)
	}
}

func TestPauseUntil(t *testing.T) {
	p := &Plan{Pause: []Window{
		{From: 10, To: 20, Node: 1},
		{From: 30, To: 40, Node: -1},
	}}
	cases := []struct {
		node int
		at   sim.Time
		want sim.Time
	}{
		{1, 15, 20}, {1, 9, 9}, {1, 20, 20}, {0, 15, 15},
		{0, 30, 40}, {1, 39, 40}, {2, 40, 40},
	}
	for _, c := range cases {
		if got := p.PauseUntil(c.node, c.at); got != c.want {
			t.Errorf("PauseUntil(%d, %v) = %v, want %v", c.node, c.at, got, c.want)
		}
	}
}

func TestLinkScale(t *testing.T) {
	p := &Plan{Degrade: []Window{
		{From: 0, To: 100, Node: -1, Factor: 2},
		{From: 50, To: 100, Node: 3, Factor: 4},
	}}
	if s := p.LinkScale(10, 0, 1); s != 2 {
		t.Errorf("scale = %g, want 2", s)
	}
	// Overlapping windows compound; node windows match either endpoint.
	if s := p.LinkScale(60, 3, 1); s != 8 {
		t.Errorf("scale = %g, want 8", s)
	}
	if s := p.LinkScale(60, 0, 3); s != 8 {
		t.Errorf("scale = %g, want 8", s)
	}
	if s := p.LinkScale(200, 0, 1); s != 1 {
		t.Errorf("scale outside windows = %g, want 1", s)
	}
}

func TestParseCrashRoundTrip(t *testing.T) {
	p, err := Parse("crash=2@1ms,crash=5@2500µs,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crash) != 2 || p.Crash[0] != (Crash{Node: 2, At: sim.Millisecond}) ||
		p.Crash[1] != (Crash{Node: 5, At: 2500 * sim.Microsecond}) {
		t.Errorf("crash = %+v", p.Crash)
	}
	if !p.HasCrash() || !p.Enabled() {
		t.Error("crash plan reports disabled")
	}
	// String renders in the same grammar; parsing it again must be stable.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Errorf("String round trip: %q vs %q", p.String(), p2.String())
	}
	for _, spec := range []string{
		"crash=*@1ms",  // crash-stop needs a concrete node
		"crash=2",      // missing @time
		"crash=2@-1ms", // negative time
		"crash=x@1ms",
		"crash=2@1ms,crash=2@5ms", // a node crashes once, permanently
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestValidateRejectsOverlappingPauses(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
		ok   bool
	}{
		{"same node overlapping", Plan{Pause: []Window{
			{Node: 2, From: 0, To: 20}, {Node: 2, From: 10, To: 30}}}, false},
		{"wildcard overlaps concrete", Plan{Pause: []Window{
			{Node: -1, From: 0, To: 20}, {Node: 2, From: 10, To: 30}}}, false},
		{"identical windows", Plan{Pause: []Window{
			{Node: 1, From: 5, To: 9}, {Node: 1, From: 5, To: 9}}}, false},
		{"same node back to back", Plan{Pause: []Window{
			{Node: 2, From: 0, To: 20}, {Node: 2, From: 20, To: 30}}}, true},
		{"different nodes overlapping", Plan{Pause: []Window{
			{Node: 1, From: 0, To: 20}, {Node: 2, From: 10, To: 30}}}, true},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: overlap accepted", c.name)
		}
	}
}

func TestCrashSchedule(t *testing.T) {
	p := &Plan{Crash: []Crash{{Node: 1, At: 10}, {Node: 3, At: 20}, {Node: 9, At: 5}}}
	got := p.CrashSchedule(4) // node 9 is out of range for a 4-node machine
	want := []sim.Time{-1, 10, -1, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CrashSchedule(4) = %v, want %v", got, want)
		}
	}
}

func TestPlanEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() || nilPlan.HasPause() || nilPlan.HasDegrade() {
		t.Error("nil plan reports enabled")
	}
	if (&Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	if !(&Plan{Drop: 0.1}).Enabled() || !(&Plan{Pause: []Window{{To: 1}}}).Enabled() {
		t.Error("configured plan reports disabled")
	}
}
