// Command earthsim runs one of the paper's applications on a configurable
// simulated EARTH machine and reports runtime statistics.
//
// Usage:
//
//	earthsim -app eigen|groebner|nn|kb|tsp|polymer [-nodes N] [-costs earth|mp300|mp500|mp1000]
//	         [-seed S] [-input Lazard|Katsura-4|Katsura-5] [-units U] [-train]
//	         [-balancer steal|random|roundrobin|none] [-distributed] [-live]
//	         [-trace out.json] [-metrics] [-bars] [-stats-json out.json]
//	         [-critpath] [-debug-http addr]
//	         [-sample DUR] [-jitter PCT] [-runs N] [-workers W] [-coalesce]
//	         [-sanitize] [-sanitize-json out.json]
//	         [-faults PLAN] [-fault-seed S] [-retry-lease DUR] [-retry-jitter J]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -coalesce enables the batched wire path: same-destination small
// messages issued within one engine step merge into a single wire
// transfer (flushed at step boundaries, or once a batch reaches 16
// messages or 4096 bytes), costed as one per-message overhead plus the summed
// serialisation. Statistics remain deterministic.
//
// -sanitize attaches a signal ledger to every frame the engines touch
// and reports sync-contract violations at run end (see
// earth.SanitizeReport): one-shot slots signalled past exhaustion, slots
// still armed at quiescence and installed threads that never ran. The report aggregates structural
// facts only, so it is byte-identical with and without -coalesce.
// -sanitize-json writes just the report (implies -sanitize), which is
// what TestDeterminismMatrix diffs across the two modes.
//
// -faults installs a deterministic fault plan on the simulated network
// (message drops recovered by modelled retry/timeout, duplication
// filtered by sequence numbers, bounded reordering, node pauses, link
// degradation, and crash-stop node failures recovered by lease-based
// detection, frame adoption and token re-dispatch — e.g.
// crash=2@1ms). Network partitions (partition=0.1|2.3@1ms-3ms) cut the
// machine into two groups for a window; a window outliving the
// detection lease (-retry-lease) makes the majority wrongly declare the
// minority dead, fence its epoch and adopt its work, while the minority
// self-fences and rejoins at heal as a steal-only worker — stale-epoch
// messages are rejected on receipt. corrupt=p flips payload bits
// in-flight; per-message checksums detect them on the receiver and the
// sender retransmits. The realisation derives from -seed unless the
// plan spec carries seed=N or -fault-seed pins it; two invocations with
// the same -faults and -fault-seed produce byte-identical statistics.
// -retry-jitter spreads retransmit backoff by a seeded factor so the
// storm after a partition heals doesn't stampede one link; it stays
// deterministic under the simulator.
//
// With -runs N > 1 the simulation repeats on fresh runtimes seeded
// seed, seed+7919, seed+2*7919, ... and reports the elapsed virtual
// time's mean/min/max/spread (-jitter PCT, in [0,100], puts seeded noise
// on the modelled costs so the runs differ). The runs are independent
// simulations, so they evaluate on a host worker pool (-workers, default
// GOMAXPROCS); the summary is deterministic regardless of pool size. The
// sweep mode excludes -live and the observability sinks, which assume
// one run.
//
// Observability: -trace writes a Chrome trace-event JSON file (open it in
// Perfetto or chrome://tracing), -metrics prints per-operation latency and
// size histograms, -bars prints the per-node utilisation bars, and
// -stats-json writes the run statistics (and metrics, when enabled) as
// machine-readable JSON.
//
// -critpath records the run's event stream, reconstructs the causal DAG
// with internal/critpath, and prints the per-node overhead attribution
// ({compute, comm, sched, recovery, idle} fractions of the makespan)
// plus the longest critical-path segments. Under the simulator the
// report is byte-identical across same-seed runs.
//
// -debug-http serves live introspection on the given address for the
// duration of the run (most useful with -live): /metrics (Prometheus
// text), /metrics.json, /debug/vars (expvar) and /debug/pprof. Live
// executors label their goroutines with the pprof label earth_node, so
// /debug/pprof/goroutine?debug=1 and CPU profiles break down by node.
//
// -cpuprofile and -memprofile write pprof profiles of the host process
// (the simulator as a program) to files and change nothing else: stdout,
// the stats JSON and the trace are those of the unprofiled run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/harness"
	"earth/internal/hostprof"
	"earth/internal/neural"
	"earth/internal/obs"
	"earth/internal/obs/debugsrv"
	"earth/internal/rewrite"
	"earth/internal/search"
	"earth/internal/sim"
	"earth/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errTraceWrite marks a trace file that could be created but not filled.
var errTraceWrite = errors.New("writing trace")

// run is the command: parse the flags, turn them into an earth.Config
// (rejecting what no machine can run), open every output, simulate, and
// report. It returns the exit code after one "earthsim: …" line on stderr
// — 2 for anything wrong with the command line, 1 for a trace the
// simulated run could not be written to (a full device, say).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "earthsim: %v\n", err)
		return 2
	}
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the FlagSet has printed the error and the usage
	}
	cfg, err := o.config()
	if err != nil {
		return fail(err)
	}
	out, err := openSinks(o)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := out.close(); err != nil && code == 0 {
			code = fail(err)
		}
	}()
	cfg.Tracer = out.tracer()
	if cfg.Tracer != nil {
		cfg.UtilSamplePeriod = sim.Time(o.sample.Nanoseconds())
	}
	if o.runs > 1 {
		if err := o.sweep(cfg, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	st, err := o.simulate(cfg, out.met, stdout)
	if err != nil {
		return fail(err)
	}
	if err := out.report(o, cfg, st, stdout); err != nil {
		code := fail(err)
		if errors.Is(err, errTraceWrite) {
			code = 1
		}
		return code
	}
	return 0
}

// options is the command line as the flags spell it.
type options struct {
	app, costs, input, balancer, faults          string
	nodes, units, runs, workers                  int
	seed, faultSeed                              int64
	jitter, retryJitter                          float64
	sample, retryLease                           time.Duration
	train, distributed, live, coalesce, sanitize bool
	// What to report, and where to.
	bars, metrics, critPath           bool
	trace, statsJSON, sanitizeJSON    string
	debugAddr, cpuProfile, memProfile string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("earthsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.app, "app", "eigen", "application: eigen, groebner, nn, kb, tsp, polymer")
	fs.IntVar(&o.nodes, "nodes", 8, "machine size")
	fs.StringVar(&o.costs, "costs", "earth", "cost model: earth, mp300, mp500, mp1000")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.input, "input", "Lazard", "Gröbner input: Lazard, Katsura-4, Katsura-5")
	fs.IntVar(&o.units, "units", 80, "neural network units per layer")
	fs.BoolVar(&o.train, "train", false, "neural network: forward+backward")
	fs.StringVar(&o.balancer, "balancer", "steal", "token balancer: steal, random, roundrobin, none")
	fs.BoolVar(&o.distributed, "distributed", false, "Gröbner: decentralised pair queues")
	fs.BoolVar(&o.live, "live", false, "run on the goroutine engine instead of the simulator")
	fs.BoolVar(&o.bars, "bars", false, "print per-node utilisation bars")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON file (Perfetto-compatible)")
	fs.BoolVar(&o.metrics, "metrics", false, "print per-operation latency/size histograms")
	fs.StringVar(&o.statsJSON, "stats-json", "", "write run statistics (and metrics) as JSON")
	fs.BoolVar(&o.critPath, "critpath", false, "print critical-path overhead attribution after the run")
	fs.StringVar(&o.debugAddr, "debug-http", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	fs.DurationVar(&o.sample, "sample", 500*time.Microsecond,
		"utilisation sampling period under the simulator (0 disables)")
	fs.Float64Var(&o.jitter, "jitter", 0, "percent of seeded jitter on modelled operation costs, in [0,100]")
	fs.IntVar(&o.runs, "runs", 1, "repeated seeded runs; > 1 reports elapsed mean/min/max")
	fs.IntVar(&o.workers, "workers", 0, "host worker pool size for -runs > 1 (0 = GOMAXPROCS)")
	fs.BoolVar(&o.coalesce, "coalesce", false,
		"merge same-destination small messages within an engine step (batched wire path)")
	fs.BoolVar(&o.sanitize, "sanitize", false,
		"track per-slot signal ledgers and report sync-contract violations at run end")
	fs.StringVar(&o.sanitizeJSON, "sanitize-json", "",
		"write the sanitizer report as JSON to this file (implies -sanitize)")
	fs.StringVar(&o.faults, "faults", "",
		`fault plan, e.g. "drop=0.05,dup=0.02,reorder=0.1,window=200us,pause=2@1ms-2ms,degrade=*@0s-5msx4"`)
	fs.Int64Var(&o.faultSeed, "fault-seed", 0,
		"pin the fault realisation (0: derive from -seed, so -runs sweeps realisations)")
	fs.DurationVar(&o.retryLease, "retry-lease", 0,
		"failure-detector lease before survivors declare a silent node dead (0: 5x the retry timeout)")
	fs.Float64Var(&o.retryJitter, "retry-jitter", 0,
		"seeded retransmit-backoff jitter fraction in [0,1) (0 disables)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the host process to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the host process to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.sanitize = o.sanitize || o.sanitizeJSON != ""
	return o, nil
}

var costModels = map[string]earth.CostModel{
	"earth":  earth.EARTHCosts(),
	"mp300":  earth.MessagePassingCosts(300 * sim.Microsecond),
	"mp500":  earth.MessagePassingCosts(500 * sim.Microsecond),
	"mp1000": earth.MessagePassingCosts(1000 * sim.Microsecond),
}

var balancers = map[string]earth.Balancer{
	"steal":      earth.BalanceSteal,
	"random":     earth.BalanceRandomPlace,
	"roundrobin": earth.BalanceRoundRobin,
	"none":       earth.BalanceNone,
}

// validate reports the first option no machine can run. Everything the
// user can get wrong is caught here or in config, before a file is
// created or an engine built: the engines panic on a config they cannot
// run.
func (o *options) validate() error {
	_, costsOK := costModels[o.costs]
	_, balancerOK := balancers[o.balancer]
	switch {
	case !costsOK:
		return fmt.Errorf("unknown cost model %q", o.costs)
	case !balancerOK:
		return fmt.Errorf("unknown balancer %q", o.balancer)
	case apps[o.app] == nil:
		return fmt.Errorf("unknown app %q", o.app)
	case o.app == "groebner" && groebner.InputByName(o.input) == nil:
		return fmt.Errorf("unknown input %q", o.input)
	case !(o.retryJitter >= 0 && o.retryJitter < 1):
		return fmt.Errorf("-retry-jitter must be in [0,1), got %v", o.retryJitter)
	case o.retryLease < 0:
		return fmt.Errorf("-retry-lease must not be negative, got %v", o.retryLease)
	case !(o.jitter >= 0 && o.jitter <= 100):
		// Above 100 % a cost can scale by a negative factor and run the
		// simulated clock backwards.
		return fmt.Errorf("-jitter must be in [0,100], got %v", o.jitter)
	case o.nodes < 1:
		return fmt.Errorf("-nodes must be at least 1, got %d", o.nodes)
	case o.units < 1:
		return fmt.Errorf("-units must be at least 1, got %d", o.units)
	case o.runs < 1:
		return fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	case o.workers < 0:
		return fmt.Errorf("-workers must be at least 0 (0 = GOMAXPROCS), got %d", o.workers)
	case o.runs > 1 && (o.live || o.trace != "" || o.metrics || o.bars || o.statsJSON != "" ||
		o.critPath || o.debugAddr != "" || o.sanitize):
		// The repeated runs print only the deterministic summary.
		return errors.New("-runs > 1 excludes -live, -trace, -metrics, -bars, -stats-json, -critpath, -sanitize and -debug-http")
	case o.faultSeed != 0 && o.faults == "":
		return errors.New("-fault-seed requires -faults")
	}
	return nil
}

// config builds the machine configuration, sinks aside, from valid
// options; a fault plan the machine cannot survive is the last thing
// that can be wrong with them.
func (o *options) config() (earth.Config, error) {
	if err := o.validate(); err != nil {
		return earth.Config{}, err
	}
	cfg := earth.Config{Nodes: o.nodes, Costs: costModels[o.costs], Seed: o.seed, Balancer: balancers[o.balancer],
		JitterPct: o.jitter, Sanitize: o.sanitize,
		Coalesce: earth.CoalesceConfig{Enabled: o.coalesce},
		Retry:    earth.RetryPolicy{Lease: sim.Time(o.retryLease.Nanoseconds()), Jitter: o.retryJitter}}
	if o.faults != "" {
		plan, err := faults.Parse(o.faults)
		if err != nil {
			return cfg, fmt.Errorf("bad -faults: %v", err)
		}
		if o.faultSeed != 0 {
			plan.Seed = o.faultSeed
		}
		if plan.Enabled() {
			cfg.Faults = plan
		}
	}
	if _, err := cfg.ResolveFaults(); err != nil {
		return cfg, fmt.Errorf("bad -faults on %d nodes: %v", o.nodes, err)
	}
	return cfg, nil
}

// sinks is everything a run reports to besides stdout. The files are
// created before any engine is built, so an unwritable path costs no
// simulation.
type sinks struct {
	rec                    *obs.Recorder // -trace, -critpath
	met                    *obs.Metrics  // -metrics, -stats-json, -debug-http
	trace, stats, sanitize *os.File
	stopProfiles           func() error
}

func openSinks(o *options) (*sinks, error) {
	s := &sinks{}
	if o.trace != "" || o.critPath {
		s.rec = obs.NewRecorder()
	}
	if o.metrics || o.statsJSON != "" || o.debugAddr != "" {
		s.met = obs.NewMetrics()
	}
	var err error
	create := func(path string) (f *os.File) {
		if path != "" && err == nil {
			f, err = os.Create(path)
		}
		return f
	}
	s.trace, s.stats, s.sanitize = create(o.trace), create(o.statsJSON), create(o.sanitizeJSON)
	if err == nil {
		s.stopProfiles, err = hostprof.Start(o.cpuProfile, o.memProfile)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// tracer is what the engines emit events to: nil when no flag asked for
// a collector, so they skip all event emission.
func (s *sinks) tracer() earth.Tracer {
	var ts []earth.Tracer
	if s.rec != nil {
		ts = append(ts, s.rec)
	}
	if s.met != nil {
		ts = append(ts, s.met)
	}
	return obs.Multi(ts...)
}

// close ends the profiles and closes the output files, returning the
// first error: a report is written only once its Close succeeds.
func (s *sinks) close() error {
	var err error
	if s.stopProfiles != nil {
		err = s.stopProfiles()
	}
	for _, f := range []*os.File{s.trace, s.stats, s.sanitize} {
		if f == nil {
			continue
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// simulate builds the engine -live selects, serves -debug-http while it
// runs, and runs the application on it.
func (o *options) simulate(cfg earth.Config, met *obs.Metrics, stdout io.Writer) (*earth.Stats, error) {
	if o.debugAddr != "" {
		srv, err := debugsrv.New(o.debugAddr, met)
		if err != nil {
			return nil, fmt.Errorf("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "debug server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	var rt earth.Runtime
	if o.live {
		cfg.ProfileLabels = true
		rt = livert.New(cfg)
	} else {
		rt = simrt.New(cfg)
	}
	return apps[o.app](o, rt, stdout)
}

// sweep repeats the application on fresh simulators seeded seed,
// seed+7919, … on the harness worker pool and prints the elapsed-time
// summary, which is the same for every pool size.
func (o *options) sweep(cfg earth.Config, stdout io.Writer) error {
	type cell struct {
		elapsed sim.Time
		err     error
	}
	cells := harness.Sweep(o.workers, []int{o.runs}, func(at []int) cell {
		c := cfg
		c.Seed = o.seed + int64(at[0])*7919
		st, err := apps[o.app](o, simrt.New(c), io.Discard)
		if err != nil {
			return cell{err: err}
		}
		return cell{elapsed: st.Elapsed}
	})
	var sp stats.Sample
	for _, c := range cells.All() {
		if c.err != nil {
			return c.err
		}
		sp.Add(float64(c.elapsed))
	}
	fmt.Fprintf(stdout, "runs=%d elapsed mean=%v min=%v max=%v spread=%.2fx\n",
		o.runs, sim.Time(sp.Mean()), sim.Time(sp.Min()), sim.Time(sp.Max()), sp.Spread())
	return nil
}

// report prints the run's statistics and the views the flags asked for,
// and fills the output files.
func (s *sinks) report(o *options, cfg earth.Config, st *earth.Stats, stdout io.Writer) error {
	fmt.Fprintln(stdout, st)
	if o.sanitize && !st.Sanitize.Clean() {
		fmt.Fprint(stdout, st.Sanitize)
	}
	if s.sanitize != nil {
		if err := writeJSON(s.sanitize, st.Sanitize); err != nil {
			return err
		}
	}
	if o.bars {
		fmt.Fprint(stdout, st.Bars())
	}
	if o.metrics {
		fmt.Fprint(stdout, s.met.Render())
	}
	if o.critPath {
		an := critpath.Analyze(s.rec.Events(), o.nodes, st.Elapsed)
		fmt.Fprint(stdout, an.Render())
	}
	if s.trace != nil {
		if err := s.rec.WriteChromeTrace(s.trace); err != nil {
			return fmt.Errorf("%w: %v", errTraceWrite, err)
		}
		fmt.Fprintf(stdout, "wrote %d events to %s\n", s.rec.Len(), o.trace)
	}
	if s.stats != nil {
		faultsStr := ""
		if cfg.Faults != nil {
			faultsStr = cfg.Faults.String()
		}
		return writeJSON(s.stats, struct {
			App     string       `json:"app"`
			Nodes   int          `json:"nodes"`
			Seed    int64        `json:"seed"`
			Live    bool         `json:"live"`
			Faults  string       `json:"faults,omitempty"`
			Stats   *earth.Stats `json:"stats"`
			Metrics *obs.Metrics `json:"metrics,omitempty"`
		}{o.app, o.nodes, o.seed, o.live, faultsStr, st, s.met})
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// apps is the -app table: each entry runs its workload on rt, prints its
// one result line to w and returns the run's statistics.
var apps = map[string]func(o *options, rt earth.Runtime, w io.Writer) (*earth.Stats, error){
	"eigen":    runEigen,
	"groebner": runGroebner,
	"nn":       runNN,
	"kb":       runKB,
	"tsp":      runTSP,
	"polymer":  runPolymer,
}

func runEigen(o *options, rt earth.Runtime, w io.Writer) (*earth.Stats, error) {
	m, tol := harness.EigenWorkload(o.seed)
	res := eigen.ParallelBisect(rt, m, eigen.ParallelConfig{Tol: tol})
	fmt.Fprintf(w, "eigenvalues=%d tasks=%d depth=[%d,%d]\n",
		len(res.Eigenvalues), res.Tasks, res.MinDepth, res.MaxDepth)
	return res.Stats, nil
}

func runGroebner(o *options, rt earth.Runtime, w io.Writer) (*earth.Stats, error) {
	in := groebner.InputByName(o.input)
	seq, err := groebner.Buchberger(in.F, in.Opt)
	if err != nil {
		return nil, fmt.Errorf("sequential baseline: %v", err)
	}
	sc := groebner.Calibrate(seq.Trace, in.PaperSeqMS)
	res, err := groebner.ParallelBuchberger(rt, in.F, groebner.ParallelConfig{
		Opt: in.Opt, StepCost: sc, DistributedQueues: o.distributed,
	})
	if err != nil {
		return nil, fmt.Errorf("parallel run: %v", err)
	}
	fmt.Fprintf(w, "basis=%d pairs=%d added=%d", len(res.Basis.Polys), res.PairsProcessed, res.Added)
	// The speedup divides the modelled sequential time by the simulated
	// parallel one; livert's elapsed time is the host's, so it has none.
	if !o.live {
		fmt.Fprintf(w, " speedup=%.2f", float64(groebner.SeqVirtualTime(seq.Trace, sc))/float64(res.Stats.Elapsed))
	}
	fmt.Fprintln(w)
	return res.Stats, nil
}

func runNN(o *options, rt earth.Runtime, w io.Writer) (*earth.Stats, error) {
	xs := make([][]float32, 4)
	ts := make([][]float32, 4)
	for s := range xs {
		xs[s] = make([]float32, o.units)
		ts[s] = make([]float32, o.units)
		for i := range xs[s] {
			xs[s][i] = float32((i+s)%17) / 17
			ts[s][i] = float32((i*3+s)%13) / 13
		}
	}
	res := neural.ParallelRun(rt, neural.Square(o.units, o.seed), xs, ts,
		neural.ParallelConfig{Train: o.train, Tree: true})
	fmt.Fprintf(w, "samples=%d per-sample=%v\n", len(res.Outputs),
		res.Stats.Elapsed/sim.Time(len(res.Outputs)))
	return res.Stats, nil
}

func runKB(o *options, rt earth.Runtime, w io.Writer) (*earth.Stats, error) {
	sys, err := rewrite.NewSystem([][2]string{{"aa", ""}, {"bb", ""}, {"ababab", ""}})
	if err != nil {
		return nil, err
	}
	res, err := rewrite.ParallelComplete(rt, sys)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "rules=%d pairs=%d added=%d conflicts=%d\n",
		len(res.System.Rules), res.PairsProcessed, res.RulesAdded, res.Rejected)
	return res.Stats, nil
}

func runTSP(o *options, rt earth.Runtime, w io.Writer) (*earth.Stats, error) {
	tsp := search.RandomTSP(11, o.seed)
	res := search.BranchAndBound(rt, tsp)
	fmt.Fprintf(w, "optimum=%.4f expanded=%d improvements=%d\n",
		res.Best, res.Expanded, res.Improvements)
	return res.Stats, nil
}

func runPolymer(o *options, rt earth.Runtime, w io.Writer) (*earth.Stats, error) {
	res := search.Count(rt, &search.Polymer{Steps: 8})
	fmt.Fprintf(w, "walks=%d visited=%d\n", res.Total, res.Visited)
	return res.Stats, nil
}
