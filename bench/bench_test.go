package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/sim"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameNames fails unless emitted and declared hold the same names, and
// reports the difference in both directions.
func sameNames(t *testing.T, what string, emitted map[string]driverValue, decl []metricDef) {
	t.Helper()
	want := map[string]metricDef{}
	for _, d := range decl {
		if _, dup := want[d.Name]; dup {
			t.Errorf("%s: %s declared twice", what, d.Name)
		}
		want[d.Name] = d
		if _, ok := emitted[d.Name]; !ok {
			t.Errorf("%s: %s is declared in BENCHMARK.json but not emitted", what, d.Name)
		}
	}
	for name, v := range emitted {
		d, ok := want[name]
		if !ok {
			t.Errorf("%s: %s is emitted but not declared in BENCHMARK.json", what, name)
			continue
		}
		if !nameRE.MatchString(name) {
			t.Errorf("%s: bad metric name %q", what, name)
		}
		if v.Unit == "" || v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, name, v.Unit, d.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", what, name, v.Value)
		}
	}
}

// selfNS returns each span's self time: its duration minus the part its
// direct children cover.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// TestSmoke runs every workload, the traced pass and every probe at tiny
// size, and checks that what the benchmark emits is exactly what
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl := readDeclared(t)
	o := options{seed: 3, seconds: 0.001, trace: true, sizes: tinySizes, setups: 1, rounds: 1,
		probeBatch: 200 * time.Microsecond}
	for _, w := range workloadDefs {
		o.workloads = append(o.workloads, w.Name)
	}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}

	// The Go tables and the JSON agree.
	if len(decl.Workloads) != len(workloadDefs) || len(res.Workloads) != len(workloadDefs) {
		t.Fatalf("workloads: %d declared, %d defined, %d run", len(decl.Workloads), len(workloadDefs), len(res.Workloads))
	}
	for i, w := range workloadDefs {
		if decl.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, metrics.go has %+v", i, decl.Workloads[i], w)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if res.Workloads[i].Name != w.Name {
			t.Errorf("workload %d ran as %q, want %q", i, res.Workloads[i].Name, w.Name)
		}
	}
	for i, d := range decl.EndToEnd {
		if i >= len(endToEnd) || d != endToEnd[i] {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, metrics.go differs", i, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end_to_end %s: bad bound or direction", d.Name)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Errorf("per_layer: %d declared, %d defined", len(decl.PerLayer), len(perLayer))
	}
	for _, p := range decl.Paths {
		if p != "bench" {
			t.Errorf("paths: %q", p)
		}
	}

	// Every workload emits every declared metric, and nothing else.
	for _, w := range res.Workloads {
		if !w.Correct || w.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.Name, w.Failed, w.Attempted, w.Why)
		}
		e2e := driverMetrics(res, w, false)
		sameNames(t, w.Name+" end_to_end", e2e.Metrics, decl.EndToEnd)
		for name, v := range e2e.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, v.Value)
			}
		}
		layers := driverMetrics(res, w, true)
		sameNames(t, w.Name+" per_layer", layers.Metrics, decl.PerLayer)
		if !e2e.Correct || !layers.Correct {
			t.Errorf("%s: driver line not correct", w.Name)
		}
	}

	// Spans nest, and each workload's self times add up to its traced reps.
	self := selfNS(res.Spans)
	total := map[string]int64{}
	reps := map[string]int64{}
	for i, s := range res.Spans {
		if s.Parent >= i || (s.Parent >= 0 && res.Spans[s.Parent].Workload != s.Workload) {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		if self[i] < 0 {
			t.Errorf("span %d (%s/%s) has negative self time", i, s.Workload, s.Name)
		}
		total[s.Workload] += self[i]
		if s.Parent < 0 {
			reps[s.Workload] += s.EndNS - s.StartNS
		}
	}
	for _, w := range workloadDefs {
		if reps[w.Name] == 0 || math.Abs(float64(total[w.Name]-reps[w.Name])) > 0.02*float64(reps[w.Name]) {
			t.Errorf("%s: self times sum to %d ns, traced reps to %d ns", w.Name, total[w.Name], reps[w.Name])
		}
	}
}

// fullFinegrain summarises one full-size seed-1 finegrain rep of the
// storm after mutate has had its way with it.
func fullFinegrain(t *testing.T, mutate func(*finegrain)) *workloadResult {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	w := &finegrain{
		s:   newStorm(fullSizes.stormNodes, fullSizes.fineTokens, referenceSeed),
		cfg: earth.Config{Nodes: fullSizes.stormNodes, Seed: referenceSeed, Shards: 1},
	}
	mutate(w)
	m := &measurement{r: w}
	m.slice(0, nil)
	return summarise("finegrain", m, []float64{1}, ref, options{seed: referenceSeed, sizes: fullSizes})
}

// TestReferenceHoldsAndCanFail proves both halves of the drift check: the
// committed reference matches today's simulator exactly, and a different
// cost model or a withheld Sync is caught.
func TestReferenceHoldsAndCanFail(t *testing.T) {
	clean := fullFinegrain(t, func(*finegrain) {})
	if d := clean.Metrics["sim_drift_frac"]; !clean.Correct || d.Value != 0 {
		t.Fatalf("clean run: drift %v, failures %v — the model changed; re-baseline with -update-reference in a change of its own", d.Value, clean.Why)
	}

	mp := fullFinegrain(t, func(w *finegrain) { w.cfg.Costs = earth.MessagePassingCosts(300 * sim.Microsecond) })
	if d := mp.Metrics["sim_drift_frac"]; d.Value <= 0 || mp.Correct {
		t.Errorf("message-passing costs: sim_drift_frac = %v, correct = %v; want drift", d.Value, mp.Correct)
	}

	skipped := fullFinegrain(t, func(w *finegrain) { w.s.skipSync = 0 })
	if f := skipped.Metrics["failed_frac"]; f.Value <= 0 || skipped.Correct {
		t.Errorf("withheld Sync: failed_frac = %v, correct = %v; want a failed check", f.Value, skipped.Correct)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(host, q1, q3, mallocs float64) *runResult {
		return &runResult{Workloads: []*workloadResult{{Name: "finegrain", Metrics: map[string]value{
			"host_s":          {Value: host, Unit: "s", Q1: q1, Q3: q3, N: 40},
			"mallocs_per_rep": {Value: mallocs, Unit: "count"},
			"failed_frac":     {Value: 0, Unit: "frac"},
		}}}}
	}
	dir := t.TempDir()
	write := func(name string, r *runResult) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(1.00, 0.99, 1.01, 1000))
	for _, tc := range []struct {
		name      string
		b         *runResult
		regressed bool
		want      string
	}{
		{"same", mk(1.01, 1.00, 1.02, 1000), false, "ok"},
		{"slower", mk(1.40, 1.39, 1.41, 1000), true, "regressed"},
		{"noisy", mk(1.40, 1.10, 1.70, 1000), false, "unresolved"},
		{"allocs", mk(1.00, 0.99, 1.01, 1200), true, "regressed"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(tc.name+".json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed = %v, want %v and a %q row in:\n%s", tc.name, regressed, tc.regressed, tc.want, out.String())
		}
	}
}

// TestQuantileMatchesDriver pins quantile to the method of Python's
// statistics.quantiles(n=4), which the driver uses for spreads.
func TestQuantileMatchesDriver(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}
