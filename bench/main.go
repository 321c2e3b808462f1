// Command bench is the repo's benchmark: one command that measures the
// host cost of the reproduction end to end and layer by layer, checks the
// outputs, and checks that every simulated statistic stays identical while
// host time moves. See README.md beside this file and BENCHMARK.json at
// the repo root.
//
//	go run ./bench                          all workloads, table on stdout
//	go run ./bench -workload finegrain      one workload; last line is the driver's JSON
//	go run ./bench -trace 1 -spans s.json   add the traced pass and the per-layer probes
//	go run ./bench -json run.json           write every number to a file
//	go run ./bench -compare a.json b.json   judge two such files against the bounds
//	go run ./bench -update-reference        re-baseline the simulated values (seed 1)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// options is one invocation's configuration.
type options struct {
	workloads []string // in workloadDefs order
	seed      int64
	seconds   float64 // timed work per workload
	trace     bool
	sizes     sizes
	// setups is how many times each workload is set up at least; setup_s
	// is the median, so one slow page-in does not decide it. A workload
	// whose set-up is short is set up again until setupBudgetS seconds
	// have gone into set-ups or maxSetups are done: a 0.05–0.3 s set-up
	// read 2x apart between runs on the median of three.
	setups, maxSetups int
	setupBudgetS      float64
	// rounds is the number of slices each workload's timed work is cut
	// into, with a collection before each.
	rounds int
	// probeBatch is the length of one micro-probe batch.
	probeBatch time.Duration
}

// unitOf maps every declared metric to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, extraDefs, infoDefs, perLayer} {
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// hostInfo records where and how a result was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string           `json:"name"`
	Reps      int              `json:"reps"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Why       []string         `json:"why,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Paper     []string         `json:"paper_vs_measured,omitempty"`
}

// runResult is the -json file.
type runResult struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
	// PerLayer holds the probe and traced-pass metrics (trace runs only).
	// The host.* and bench.* entries are per workload and live in each
	// workload's Metrics instead.
	PerLayer map[string]value `json:"per_layer,omitempty"`
	Spans    []span           `json:"-"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the toolchain stamped into the binary; unknown
// when the benchmark was built outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func host() hostInfo {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: commit()}
}

// run executes one benchmark invocation. Workloads run one after the
// other, each set up, measured and dropped before the next, so that a
// workload is measured on its own heap whether it was asked for alone or
// with the others.
func run(o options) (*runResult, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	res := &runResult{Host: host(), Seed: o.seed, Seconds: o.seconds}
	// A traced run spends only a quarter of the time on untraced reps —
	// enough for the overhead comparison — so that with its traced pass
	// and probes it costs about as much as an untraced run.
	seconds := o.seconds
	if o.trace {
		seconds /= 4
	}
	for _, name := range o.workloads {
		// Set-up: inputs, sequential references and warm-up, timed.
		var m *measurement
		var setupS []float64
		kernelS := sampleKernel(nil)
		for spent := 0.0; len(setupS) < o.setups || (len(setupS) < o.maxSetups && spent < o.setupBudgetS); {
			t0 := time.Now()
			m = &measurement{r: setups[name](o.seed, o.sizes)}
			setupS = append(setupS, time.Since(t0).Seconds())
			spent += setupS[len(setupS)-1]
			kernelS = sampleKernel(kernelS)
		}
		for k := range setupS {
			setupS[k] *= speed(kernelS)
		}
		// The timed, untraced reps every end-to-end metric comes from.
		m.measure(seconds, o.rounds, nil)
		res.Workloads = append(res.Workloads, summarise(name, m, setupS, ref, o))
	}
	if !o.trace {
		return res, nil
	}

	// The traced pass repeats a little of every workload with spans on;
	// the per-layer metrics that are shares or ratios come from its spans.
	tr := newTracer()
	layer := map[string]float64{}
	for _, def := range workloadDefs {
		t := &measurement{r: setups[def.Name](o.seed, o.sizes)}
		tr.workload = def.Name
		t.measure(min(o.seconds, tracedS), 1, tr)
		spanMetrics(tr.spans, def.Name, t.speed(), layer)
		if def.Name == "finegrain" {
			// One untraced rep for the engine's own counts: the traced
			// reps' allocations include the free-engine run.
			fg := &measurement{r: t.r}
			fg.measure(0, 1, nil)
			layer["simrt.allocs_per_event"] = float64(fg.mallocs) / fg.first.work
			layer["simrt.steal_frac"] = fg.first.stolenFrac
		}
		if at := slices.Index(o.workloads, def.Name); at >= 0 {
			w := res.Workloads[at]
			w.merge(t.checks)
			untraced := w.Metrics["host_s"].Value
			w.Metrics["bench.trace_overhead_frac"] = value{Value: median(t.rawS)*t.speed()/untraced - 1, Unit: "frac", N: len(t.rawS)}
		}
	}
	res.Spans = tr.spans
	layer["harness.workers_speedup"] = figure4Workers1MS(o.seed, o.sizes) / layer["harness.figure4_ms"]
	runProbes(o.probeBatch, o.seed, layer)
	res.PerLayer = map[string]value{}
	for _, d := range perLayer {
		if v, ok := layer[d.Name]; ok {
			res.PerLayer[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}
	return res, nil
}

// tracedS is how long the traced pass spends on each workload (at least
// one rep): three reps of features, whose phase ratios are otherwise
// single samples.
const tracedS = 2.5

func (w *workloadResult) merge(c checks) {
	w.Attempted += c.attempted
	w.Failed += c.failed
	w.Why = append(w.Why, c.why...)
	w.Correct = w.Failed == 0
}

// summarise turns one workload's measurement into its reported metrics.
func summarise(name string, m *measurement, setupS []float64, ref *reference, o options) *workloadResult {
	w := &workloadResult{Name: name, Reps: len(m.rawS), Metrics: map[string]value{}}
	w.merge(m.checks)
	reps := float64(len(m.rawS))
	hostS := timing(m.rawS, m.speed())
	put := func(name string, v float64) { w.Metrics[name] = value{Value: v, Unit: unitOf[name]} }
	w.Metrics["setup_s"] = timing(setupS, 1)
	w.Metrics["host_s"] = hostS
	w.Metrics["events_per_s"] = value{Value: m.first.work / hostS.Value, Unit: unitOf["events_per_s"],
		Q1: m.first.work / hostS.Q3, Q3: m.first.work / hostS.Q1, N: hostS.N}
	put("mallocs_per_rep", float64(m.mallocs)/reps)
	put("alloc_mb_per_rep", float64(m.bytes)/reps/1e6)
	put("sim_events", m.first.work)
	w.Metrics["host_raw_s"] = timing(m.rawS, 1)
	put("host_speed", m.speed())
	if m.first.simMS > 0 {
		put("sim_elapsed_ms", m.first.simMS)
	}

	// Drift against the committed reference: only meaningful for the seed
	// and sizes the reference was taken at.
	if want, ok := ref.Workloads[name]; ok && o.seed == ref.Seed && o.sizes.reference {
		compared, differing := drift(m.first.values, want)
		put("sim_drift_frac", float64(differing)/float64(compared))
		w.Attempted += compared
		w.Failed += differing
		if differing > 0 {
			w.Why = append(w.Why, fmt.Sprintf("%d of %d simulated values differ from %s", differing, compared, referencePath))
		}
	}
	paper := paperValues(ref)
	if e := paperError(m.first.paper, paper); !math.IsNaN(e) {
		put("paper_err_pct", e)
		w.Paper = paperLines(m.first.paper, paper)
	}
	w.Correct = w.Failed == 0
	put("failed_frac", float64(w.Failed)/float64(w.Attempted))

	put("host.heap_inuse_mb", float64(m.heapInuse)/1e6)
	put("host.gc_cycles_per_rep", float64(m.gcCycles)/reps)
	if m.cpuS > 0 {
		put("host.gc_cpu_frac", m.gcS/m.cpuS)
	} else {
		put("host.gc_cpu_frac", 0)
	}
	return w
}

// spanMetrics derives the per-layer metrics that come from one workload's
// traced reps, from span durations scaled to reference speed: the harness
// functions' host times, each feature phase's cost relative to the clean
// phase, and what the finegrain storm's Run spends outside the benchmark's
// own closures.
func spanMetrics(spans []span, workload string, speed float64, out map[string]float64) {
	ns := func(name string) float64 {
		var ds []float64
		for _, s := range spans {
			if s.Workload == workload && s.Name == name {
				ds = append(ds, float64(s.EndNS-s.StartNS)*speed)
			}
		}
		return median(ds)
	}
	switch workload {
	case "figs_sym":
		for _, f := range []string{"Table1", "Figure2", "Table2", "Figure4", "Figure5"} {
			out["harness."+strings.ToLower(f)+"_ms"] = ns("harness."+f) / 1e6
		}
	case "figs_nn":
		for _, f := range []string{"Table3", "Figure7", "Figure8"} {
			out["harness."+strings.ToLower(f)+"_ms"] = ns("harness."+f) / 1e6
		}
	case "features":
		for _, ph := range featurePhases[1:] {
			out["simrt."+ph.name+"_ratio"] = ns("phase."+ph.name) / ns("phase.off")
		}
	case "finegrain":
		out["simrt.engine_self_frac"] = 1 - ns("bodies")/ns("simrt.Run")
	}
}

// driverLine is the last line of standard output in single-workload
// mode, in the shape the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMetrics picks what the driver asked for: every end-to-end metric
// of the workload, or with tracing every per-layer metric.
func driverMetrics(res *runResult, w *workloadResult, trace bool) driverLine {
	line := driverLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]driverValue{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := w.Metrics[d.Name]
		if !ok {
			v, ok = res.PerLayer[d.Name]
		}
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			line.Correct = false
			line.Failed++
			line.Attempted++
			continue
		}
		line.Metrics[d.Name] = driverValue{v.Value, v.Unit}
	}
	return line
}

// printTable writes the human-readable report.
func printTable(res *runResult) {
	h := res.Host
	fmt.Printf("bench: seed %d, %.0f s per workload, nproc %d, GOMAXPROCS %d, GOGC %s, %s, %s, commit %s\n",
		res.Seed, res.Seconds, h.NProc, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.CPU, h.Commit)
	for _, w := range res.Workloads {
		fmt.Printf("\n%s: %d reps, %d of %d checks failed\n", w.Name, w.Reps, w.Failed, w.Attempted)
		for _, why := range w.Why {
			fmt.Printf("  FAILED %s\n", why)
		}
		for _, defs := range [][]metricDef{endToEnd, extraDefs, infoDefs, perLayer} {
			for _, d := range defs {
				v, ok := w.Metrics[d.Name]
				if !ok {
					continue
				}
				fmt.Printf("  %-28s %14.6g %-6s", d.Name, v.Value, v.Unit)
				if v.N > 0 {
					fmt.Printf(" n=%d", v.N)
				}
				if v.Q3 > 0 {
					fmt.Printf(" iqr=[%.6g, %.6g]", v.Q1, v.Q3)
				}
				if v.Hi > 0 {
					fmt.Printf(" p%.0f=%.6g", v.HiPct, v.Hi)
				}
				fmt.Println()
			}
		}
		for _, l := range w.Paper {
			fmt.Printf("  %s\n", l)
		}
	}
	if len(res.PerLayer) > 0 {
		fmt.Printf("\nper-layer probes and traced pass:\n")
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; ok {
				fmt.Printf("  %-32s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run (figs_sym, figs_nn, finegrain, features, live) or all")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 20, "timed work per workload, in seconds")
		trace     = flag.Int("trace", 0, "1 adds the traced pass and the per-layer probes")
		jsonPath  = flag.String("json", "", "write every measured number to this file")
		spansPath = flag.String("spans", "", "write the traced pass's spans to this file (with -trace 1)")
		compare   = flag.Bool("compare", false, "compare two -json files given as arguments; exit 1 on a regression")
		updateRef = flag.Bool("update-reference", false, "rewrite "+referencePath+" from a seed-1 run")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare wants two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	case *updateRef:
		if err := updateReference(); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: fullSizes,
		setups: 3, maxSetups: 9, setupBudgetS: 2, rounds: 4, probeBatch: 30 * time.Millisecond}
	if o.trace {
		o.setups, o.maxSetups = 1, 1 // setup_s is an end-to-end metric; traced runs do not report it
	}
	for _, w := range workloadDefs {
		if *workload == "all" || *workload == w.Name {
			o.workloads = append(o.workloads, w.Name)
		}
	}
	if len(o.workloads) == 0 {
		fail(fmt.Errorf("unknown workload %q; see -help", *workload))
	}

	res, err := run(o)
	if err != nil {
		fail(err)
	}
	printTable(res)
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, res); err != nil {
			fail(err)
		}
	}
	if *spansPath != "" && o.trace {
		if err := writeJSON(*spansPath, res.Spans); err != nil {
			fail(err)
		}
	}
	correct := true
	for _, w := range res.Workloads {
		correct = correct && w.Correct
	}
	if len(res.Workloads) == 1 {
		line := driverMetrics(res, res.Workloads[0], o.trace)
		correct = correct && line.Correct
		out, err := json.Marshal(line)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", out)
	}
	if !correct {
		os.Exit(1)
	}
}
