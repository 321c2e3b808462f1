package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/harness"
	"earth/internal/obs"
	"earth/internal/stats"
)

// sizes scales the workloads. fullSizes is what the benchmark measures;
// the smoke test runs the same code at tinySizes.
type sizes struct {
	reference   bool  // the committed reference values are for these sizes
	figsNodes   []int // harness node list; nil is the paper's 1..20 list
	stormNodes  int
	fineTokens  int
	featTokens  int
	liveNodes   int
	liveTokens  int
	liveMatrixN int
}

var (
	fullSizes = sizes{reference: true, figsNodes: nil, stormNodes: 20, fineTokens: 100000, featTokens: 25000,
		liveNodes: 8, liveTokens: 20000, liveMatrixN: 200}
	tinySizes = sizes{figsNodes: []int{2, 4}, stormNodes: 20, fineTokens: 600, featTokens: 600,
		liveNodes: 4, liveTokens: 300, liveMatrixN: 42}
)

// repResult is what one repetition reports besides its host time.
type repResult struct {
	// work is the rep's size in the unit events_per_s counts: simulator
	// events (finegrain, features), EARTH operations issued plus search
	// nodes expanded (live), series points regenerated (figs_*).
	work float64
	// simMS is the summed simulated makespan in ms; 0 where the workload
	// exposes none (figs_* return speedup series, live has no virtual clock).
	simMS float64
	// values are the rep's simulated results in a fixed order. They must
	// repeat exactly rep to rep and, at seed 1, equal the committed
	// reference. nil on live, whose schedule is the host's.
	values []float64
	// paper holds measured headline quantities keyed like the reference
	// file's published values (figs_* only).
	paper map[string]float64
	// stolenFrac is tokens stolen over tokens run in the rep's last storm.
	stolenFrac float64

	checks
}

// checks counts verified properties of the outputs.
type checks struct {
	attempted, failed int
	why               []string // first few failures, for the report
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.why) < 8 {
		c.why = append(c.why, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.why = append(c.why, o.why...)
	if len(c.why) > 8 {
		c.why = c.why[:8]
	}
}

// runner is one set-up workload; rep runs one repetition, recording
// spans into tr when it is non-nil.
type runner interface {
	rep(tr *tracer) repResult
}

// setups builds each workload's inputs and sequential references from the
// seed and runs its warm-up. Everything before the first timed rep
// happens here and is what setup_s times.
var setups = map[string]func(seed int64, sz sizes) runner{
	"figs_sym":  setupFigsSym,
	"figs_nn":   setupFigsNN,
	"finegrain": setupFinegrain,
	"features":  setupFeatures,
	"live":      setupLive,
}

// ---------------------------------------------------------------------------
// figs_sym and figs_nn: the harness experiments
// ---------------------------------------------------------------------------

type figsSym struct {
	cfg harness.Config
	// Sequential quantities the reps do not recompute: Table 1's task
	// count and Table 2's tasks/added per input.
	paperSeq map[string]float64
}

func setupFigsSym(seed int64, sz sizes) runner {
	w := &figsSym{
		cfg:      harness.Config{Runs: 1, Seed: seed, Nodes: sz.figsNodes},
		paperSeq: map[string]float64{},
	}
	m, tol := harness.EigenWorkload(seed)
	w.paperSeq["table1.tasks"] = float64(eigen.Bisect(m, tol).Tasks)
	for _, in := range groebner.PaperInputs() {
		b, err := groebner.Buchberger(in.F, in.Opt)
		if err != nil {
			panic(err) // the paper inputs always complete
		}
		w.paperSeq["table2.tasks."+in.Name] = float64(b.Trace.PairsReduced)
		w.paperSeq["table2.added."+in.Name] = float64(b.Trace.Added)
	}
	// Warm-up: the whole path at the smallest machine, which pages in the
	// code and grows the heap without costing a full rep.
	warm := *w
	warm.cfg.Nodes = []int{2}
	warm.rep(nil)
	return w
}

// seriesValues appends every point of every series, in order.
func seriesValues(dst []float64, ss []*stats.Series) []float64 {
	for _, s := range ss {
		for _, p := range s.Points {
			dst = append(dst, p.Mean)
		}
	}
	return dst
}

// checkReport verifies a harness report rendered without an error line
// and produced the expected number of series.
func (r *repResult) checkReport(rep *harness.Report, wantSeries int) {
	r.expect(!strings.Contains(rep.String(), "ERROR"), "%s: report contains an ERROR line", rep.ID)
	r.expect(len(rep.Series) == wantSeries, "%s: %d series, want %d", rep.ID, len(rep.Series), wantSeries)
	for _, s := range rep.Series {
		for _, p := range s.Points {
			r.expect(p.Mean > 0 && !math.IsInf(p.Mean, 0), "%s: %s@%d = %v", rep.ID, s.Name, p.Nodes, p.Mean)
		}
	}
}

func (w *figsSym) rep(tr *tracer) repResult {
	res := repResult{paper: map[string]float64{}}
	for k, v := range w.paperSeq {
		res.paper[k] = v
	}
	tr.call("harness.Table1", func() { res.checkReport(harness.Table1(w.cfg), 0) })
	tr.call("harness.Figure2", func() {
		rep, ss := harness.Figure2(w.cfg)
		res.checkReport(rep, 2)
		res.values = seriesValues(res.values, ss)
		if p, ok := ss[0].At(20); ok {
			res.paper["figure2.speedup_at_20"] = p.Mean
		}
	})
	tr.call("harness.Table2", func() { res.checkReport(harness.Table2(w.cfg), 0) })
	inputs := groebner.PaperInputs()
	tr.call("harness.Figure4", func() {
		rep, ss := harness.Figure4(w.cfg)
		res.checkReport(rep, len(inputs))
		res.values = seriesValues(res.values, ss)
		for i, in := range inputs {
			peak, _ := ss[i].MaxMean()
			res.paper["figure4.peak."+in.Name] = peak
		}
	})
	tr.call("harness.Figure5", func() {
		rep, byInput := harness.Figure5(w.cfg)
		res.checkReport(rep, 4*len(inputs))
		for _, in := range inputs {
			res.values = seriesValues(res.values, byInput[in.Name])
		}
	})
	res.work = float64(len(res.values))
	return res
}

type figsNN struct{ cfg harness.Config }

func setupFigsNN(seed int64, sz sizes) runner {
	w := &figsNN{cfg: harness.Config{Runs: 1, Seed: seed, Nodes: sz.figsNodes}}
	w.rep(nil)
	return w
}

func (w *figsNN) rep(tr *tracer) repResult {
	res := repResult{paper: map[string]float64{}}
	tr.call("harness.Table3", func() { res.checkReport(harness.Table3(w.cfg), 0) })
	for _, fig := range []struct {
		name, span string
		run        func(harness.Config) (*harness.Report, []*stats.Series)
	}{{"figure7", "harness.Figure7", harness.Figure7}, {"figure8", "harness.Figure8", harness.Figure8}} {
		tr.call(fig.span, func() {
			rep, ss := fig.run(w.cfg)
			res.checkReport(rep, 3)
			res.values = seriesValues(res.values, ss)
			if p, ok := ss[0].At(16); ok {
				res.paper[fig.name+".80_units_at_16"] = p.Mean
			}
			if p, ok := ss[1].At(20); ok {
				res.paper[fig.name+".200_units_at_20"] = p.Mean
			}
		})
	}
	res.work = float64(len(res.values))
	return res
}

// ---------------------------------------------------------------------------
// finegrain, features: the storm on simrt
// ---------------------------------------------------------------------------

// runStorm runs s once on a fresh simrt machine. A traced run records
// simrt.New and simrt.Run spans and, as Run's one aggregated child, the
// host time of the benchmark's own closures, which it measures by running
// the same program again on the free engine (span bodies.measure).
func runStorm(tr *tracer, s *storm, cfg earth.Config) *earth.Stats {
	s.reset()
	var rt *simrt.Runtime
	var st *earth.Stats
	tr.call("simrt.New", func() { rt = simrt.New(cfg) })
	run := tr.call("simrt.Run", func() { st = rt.Run(s.main) })
	if tr != nil {
		kept := s.st
		s.st = make([]stormNode, s.nodes)
		s.reset()
		var ns time.Duration
		var calls int64
		tr.call("bodies.measure", func() { ns, calls = newFreeEngine(s.nodes).run(s.main) })
		s.st = kept
		tr.aggregate(run, "bodies", int64(ns), calls)
	}
	return st
}

// addStorm folds one storm run into the rep: invariants, events,
// makespan and the simulated projection.
func (r *repResult) addStorm(s *storm, st *earth.Stats, exact bool, label string) {
	r.merge(s.check(exact, label))
	r.work += float64(st.Events)
	r.simMS += st.Elapsed.Milliseconds()
	r.values = append(r.values, simValues(st)...)
	var stolen, ran uint64
	for i := range st.Nodes {
		stolen += st.Nodes[i].TokensStolen
		ran += st.Nodes[i].TokensRun
	}
	r.stolenFrac = float64(stolen) / float64(max(ran, 1))
}

type finegrain struct {
	s   *storm
	cfg earth.Config
}

func setupFinegrain(seed int64, sz sizes) runner {
	w := &finegrain{
		s:   newStorm(sz.stormNodes, sz.fineTokens, seed),
		cfg: earth.Config{Nodes: sz.stormNodes, Seed: seed, Shards: 1},
	}
	w.rep(nil)
	return w
}

func (w *finegrain) rep(tr *tracer) repResult {
	var res repResult
	res.addStorm(w.s, runStorm(tr, w.s, w.cfg), true, "finegrain")
	return res
}

// featurePhase is the storm with exactly one engine option on.
type featurePhase struct {
	name string
	set  func(*earth.Config)
	// lossy marks plans that may discard work by design (a partition
	// that outlives the lease fences the minority); see storm.check.
	lossy bool
}

func mustPlan(spec string) *faults.Plan {
	p, err := faults.Parse(spec)
	if err != nil {
		panic(err) // the specs are constants of this file
	}
	return p
}

// featurePhases lists the phases in run order. "off" is the base every
// simrt.<phase>_ratio is taken against.
var featurePhases = []featurePhase{
	{name: "off", set: func(*earth.Config) {}},
	{name: "tracer", set: func(c *earth.Config) { c.Tracer = obs.NewRecorder() }},
	{name: "faults", set: func(c *earth.Config) {
		c.Faults = mustPlan("drop=0.02,dup=0.02,reorder=0.05,corrupt=0.01")
	}},
	{name: "crash", set: func(c *earth.Config) { c.Faults = mustPlan("crash=3@2ms,crash=11@5ms") }},
	{name: "partition", lossy: true, set: func(c *earth.Config) {
		c.Faults = mustPlan("partition=0.1.2.3.4.5.6.7.8.9.10.11.12.13|14.15.16.17.18.19@1ms-6ms,corrupt=0.01")
	}},
	{name: "coalesce", set: func(c *earth.Config) { c.Coalesce.Enabled = true }},
	{name: "sanitize", set: func(c *earth.Config) { c.Sanitize = true }},
	{name: "shards2", set: func(c *earth.Config) { c.Shards = 2 }},
}

type features struct {
	s    *storm
	base earth.Config
}

func setupFeatures(seed int64, sz sizes) runner {
	w := &features{
		s:    newStorm(sz.stormNodes, sz.featTokens, seed),
		base: earth.Config{Nodes: sz.stormNodes, Seed: seed, Shards: 1},
	}
	w.rep(nil)
	return w
}

func (w *features) rep(tr *tracer) repResult {
	var res repResult
	var off, shards2 []float64
	for _, ph := range featurePhases {
		cfg := w.base
		ph.set(&cfg)
		tr.call("phase."+ph.name, func() {
			st := runStorm(tr, w.s, cfg)
			at := len(res.values)
			res.addStorm(w.s, st, !ph.lossy, ph.name)
			switch ph.name {
			case "off":
				off = res.values[at:]
			case "shards2":
				shards2 = res.values[at:]
			case "sanitize":
				res.expect(st.Sanitize.Clean(), "sanitize: %v", st.Sanitize)
			case "tracer":
				// Tracing costs its user the recording and the analysis of
				// it. The Chrome export is left to its probe: at ~3 s per
				// million events it would be half the workload and bury
				// the seven engine paths this workload watches.
				events := cfg.Tracer.(*obs.Recorder).Events()
				res.expect(len(events) > 0, "tracer: no events recorded")
				tr.call("critpath.Analyze", func() {
					a := critpath.Analyze(events, cfg.Nodes, st.Elapsed)
					res.expect(a != nil, "tracer: no critical-path analysis")
				})
			}
		})
	}
	res.expect(slices.Equal(off, shards2), "shards2 statistics differ from shards=1")
	return res
}

// ---------------------------------------------------------------------------
// live: the storm and a bisection on livert
// ---------------------------------------------------------------------------

type live struct {
	s      *storm
	cfg    earth.Config
	matrix *eigen.SymTridiag
	seq    *eigen.Result
}

const liveTol = 1e-5

func setupLive(seed int64, sz sizes) runner {
	w := &live{
		s:      newStorm(sz.liveNodes, sz.liveTokens, seed),
		cfg:    earth.Config{Nodes: sz.liveNodes, Seed: seed},
		matrix: eigen.Clustered(sz.liveMatrixN, 21, seed),
	}
	w.seq = eigen.Bisect(w.matrix, liveTol)
	w.rep(nil)
	return w
}

func (w *live) rep(tr *tracer) repResult {
	var res repResult
	w.s.reset()
	var rt *livert.Runtime
	tr.call("livert.New", func() { rt = livert.New(w.cfg) })
	tr.call("livert.Run", func() { rt.Run(w.s.main) })
	res.merge(w.s.check(true, "live"))
	var par *eigen.ParallelResult
	tr.call("eigen.ParallelBisect", func() {
		par = eigen.ParallelBisect(rt, w.matrix, eigen.ParallelConfig{Tol: liveTol})
	})
	res.expect(par.Tasks == w.seq.Tasks, "live: bisection expanded %d search nodes, sequential %d", par.Tasks, w.seq.Tasks)
	same := len(par.Eigenvalues) == len(w.seq.Eigenvalues)
	for i := 0; same && i < len(par.Eigenvalues); i++ {
		same = math.Abs(par.Eigenvalues[i]-w.seq.Eigenvalues[i]) <= liveTol
	}
	res.expect(same, "live: parallel eigenvalues differ from the sequential reference")
	res.work = float64(w.s.ops() + par.Tasks)
	return res
}
