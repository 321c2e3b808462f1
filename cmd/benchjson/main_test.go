package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out, err := parse(strings.NewReader(`
goos: linux
cpu: Intel(R) Xeon(R)
BenchmarkSimEngineSchedule/depth=16-4   50000000   24.00 ns/op   0 B/op   0 allocs/op
BenchmarkFigure4GroebnerSpeedups        2          812488592 ns/op
PASS
ok   earth 3.2s
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("parsed %d results, want 2: %v", len(out), out)
	}
	sched, ok := out["BenchmarkSimEngineSchedule/depth=16"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", out)
	}
	if sched.NsPerOp != 24 || sched.BPerOp == nil || *sched.BPerOp != 0 ||
		sched.AllocsPerOp == nil || *sched.AllocsPerOp != 0 {
		t.Fatalf("bad record: %+v", sched)
	}
	fig4 := out["BenchmarkFigure4GroebnerSpeedups"]
	if fig4.NsPerOp != 812488592 {
		t.Fatalf("bad ns/op: %+v", fig4)
	}
	if fig4.BPerOp != nil || fig4.AllocsPerOp != nil {
		t.Fatalf("memory columns without -benchmem should stay nil: %+v", fig4)
	}
}

// TestParseKeepsMedianOfRepeatedRuns: under -count N the recorded line is
// the median by ns/op (not the last one printed), memory columns included.
func TestParseKeepsMedianOfRepeatedRuns(t *testing.T) {
	out, err := parse(strings.NewReader(`
BenchmarkHold-2   100   50.0 ns/op   5 B/op   1 allocs/op
BenchmarkHold-2   100   90.0 ns/op   9 B/op   3 allocs/op
BenchmarkHold-2   100   60.0 ns/op   6 B/op   2 allocs/op
BenchmarkHold-2   100   40.0 ns/op   4 B/op   0 allocs/op
BenchmarkHold-2   100   900.0 ns/op  90 B/op  9 allocs/op
BenchmarkEven-2   100   30.0 ns/op
BenchmarkEven-2   100   10.0 ns/op
BenchmarkEven-2   100   40.0 ns/op
BenchmarkEven-2   100   20.0 ns/op
BenchmarkOnce-2   100   7.0 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	hold := out["BenchmarkHold"]
	if hold.NsPerOp != 60 || hold.BPerOp == nil || *hold.BPerOp != 6 || hold.AllocsPerOp == nil || *hold.AllocsPerOp != 2 {
		t.Errorf("median of five: %+v, want the 60 ns/op line with its 6 B/op and 2 allocs/op", hold)
	}
	if even := out["BenchmarkEven"]; even.NsPerOp != 20 {
		t.Errorf("median of four = %v ns/op, want 20 (the lower middle run)", even.NsPerOp)
	}
	if once := out["BenchmarkOnce"]; once.NsPerOp != 7 {
		t.Errorf("single run = %v ns/op, want 7", once.NsPerOp)
	}
}

// TestZeroAllocColumnsSurviveMarshal pins the omitempty fix: a measured
// 0 B/op, 0 allocs/op must appear in the JSON document (it used to be
// dropped, hiding allocation regressions on allocation-free benchmarks),
// while a run without -benchmem still omits the memory columns.
func TestZeroAllocColumnsSurviveMarshal(t *testing.T) {
	zero := 0.0
	withMem, err := json.Marshal(Result{NsPerOp: 222, BPerOp: &zero, AllocsPerOp: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ns_per_op":222,"b_per_op":0,"allocs_per_op":0}`; string(withMem) != want {
		t.Errorf("marshal with zero memory columns:\n got %s\nwant %s", withMem, want)
	}
	noMem, err := json.Marshal(Result{NsPerOp: 222})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ns_per_op":222}`; string(noMem) != want {
		t.Errorf("marshal without -benchmem:\n got %s\nwant %s", noMem, want)
	}
}

func TestCompareFlagsInjectedRegression(t *testing.T) {
	old := map[string]Result{
		"BenchmarkStable": {NsPerOp: 1000},
		"BenchmarkSlow":   {NsPerOp: 1000},
		"BenchmarkFast":   {NsPerOp: 1000},
		"BenchmarkGone":   {NsPerOp: 42},
	}
	cur := map[string]Result{
		"BenchmarkStable": {NsPerOp: 1100}, // +10%: under the threshold
		"BenchmarkSlow":   {NsPerOp: 2000}, // injected 2x regression
		"BenchmarkFast":   {NsPerOp: 500},  // improvement, not a failure
		"BenchmarkNew":    {NsPerOp: 7},
	}
	var sb strings.Builder
	if got := compare(old, cur, 0.15, nil, &sb); got != 1 {
		t.Fatalf("compare found %d regressions, want 1\n%s", got, sb.String())
	}
	rep := sb.String()
	for _, want := range []string{
		"REGRESS  BenchmarkSlow",
		"(+100.0%)",
		"improve  BenchmarkFast",
		"new      BenchmarkNew",
		"removed  BenchmarkGone",
		"1 benchmark(s) regressed beyond 15%",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "BenchmarkStable") {
		t.Errorf("within-threshold benchmark should not be reported:\n%s", rep)
	}
}

func TestCompareCleanPass(t *testing.T) {
	base := map[string]Result{"BenchmarkA": {NsPerOp: 100}, "BenchmarkB": {NsPerOp: 0}}
	var sb strings.Builder
	if got := compare(base, base, 0.15, nil, &sb); got != 0 {
		t.Fatalf("self-compare found %d regressions:\n%s", got, sb.String())
	}
	if !strings.Contains(sb.String(), "no blocking regressions") {
		t.Errorf("clean report: %s", sb.String())
	}
}

// TestCompareRequiredGate: with a curated -require list only the listed
// benchmarks (and their sub-benchmarks) block; other regressions are
// reported as advisory warnings.
func TestCompareRequiredGate(t *testing.T) {
	old := map[string]Result{
		"BenchmarkFigure4GroebnerSpeedups":         {NsPerOp: 1000},
		"BenchmarkSimEngineSchedule/depth=1024":    {NsPerOp: 200},
		"BenchmarkNoisyMicro":                      {NsPerOp: 50},
		"BenchmarkSimEngineScheduleExtra/depth=16": {NsPerOp: 70},
	}
	cur := map[string]Result{
		"BenchmarkFigure4GroebnerSpeedups":         {NsPerOp: 1100}, // within threshold
		"BenchmarkSimEngineSchedule/depth=1024":    {NsPerOp: 600},  // 3x: blocks via prefix
		"BenchmarkNoisyMicro":                      {NsPerOp: 500},  // 10x: advisory only
		"BenchmarkSimEngineScheduleExtra/depth=16": {NsPerOp: 700},  // prefix must not match
	}
	curated := []string{"BenchmarkFigure4GroebnerSpeedups", "BenchmarkSimEngineSchedule"}
	var sb strings.Builder
	got := compare(old, cur, 0.5, curated, &sb)
	rep := sb.String()
	if got != 1 {
		t.Fatalf("compare found %d blocking regressions, want 1\n%s", got, rep)
	}
	if !strings.Contains(rep, "REGRESS  BenchmarkSimEngineSchedule/depth=1024") {
		t.Errorf("required sub-benchmark regression should block:\n%s", rep)
	}
	for _, advisory := range []string{"BenchmarkNoisyMicro", "BenchmarkSimEngineScheduleExtra/depth=16"} {
		if !strings.Contains(rep, "warn     "+advisory) {
			t.Errorf("non-required regression %s should warn:\n%s", advisory, rep)
		}
		if strings.Contains(rep, "REGRESS  "+advisory) {
			t.Errorf("non-required regression %s must not block:\n%s", advisory, rep)
		}
	}
}
