// Command earthsim runs one of the paper's applications on a configurable
// simulated EARTH machine and reports runtime statistics.
//
// Usage:
//
//	earthsim -app eigen|groebner|nn [-nodes N] [-costs earth|mp300|mp500|mp1000]
//	         [-seed S] [-input Lazard|Katsura-4|Katsura-5] [-units U] [-train]
//	         [-balancer steal|random|roundrobin|none] [-distributed] [-live]
//	         [-trace out.json] [-metrics] [-bars] [-stats-json out.json]
//	         [-critpath] [-debug-http addr]
//	         [-sample DUR] [-runs N] [-workers W] [-coalesce]
//	         [-sanitize] [-sanitize-json out.json]
//	         [-faults PLAN] [-fault-seed S] [-retry-lease DUR] [-retry-jitter J]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -coalesce enables the batched wire path: same-destination small
// messages issued within one engine step merge into a single wire
// transfer (flushed at step boundaries or the configured byte/count
// threshold), costed as one per-message overhead plus the summed
// serialisation. Statistics remain deterministic and shard-independent.
//
// -sanitize attaches a signal ledger to every frame the engines touch
// and reports sync-contract violations at run end (see
// earth.SanitizeReport): one-shot slots signalled past exhaustion, Adds
// that would drive a counter negative, slots still armed at quiescence
// and installed threads that never ran. The report aggregates structural
// facts only, so it is byte-identical across -shards counts and
// -coalesce modes. -sanitize-json writes just the report (implies
// -sanitize), which is what CI diffs across those modes.
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
// time's mean/min/max/spread. The runs are independent simulations, so
// they evaluate on a host worker pool (-workers, default GOMAXPROCS);
// the summary is deterministic regardless of pool size. The sweep mode
// excludes -live and the observability sinks, which assume one run.
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
	"flag"
	"fmt"
	"os"
	"runtime"
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

func main() {
	app := flag.String("app", "eigen", "application: eigen, groebner, nn, kb, tsp, polymer")
	nodes := flag.Int("nodes", 8, "machine size")
	costsName := flag.String("costs", "earth", "cost model: earth, mp300, mp500, mp1000")
	seed := flag.Int64("seed", 1, "random seed")
	input := flag.String("input", "Lazard", "Gröbner input: Lazard, Katsura-4, Katsura-5")
	units := flag.Int("units", 80, "neural network units per layer")
	train := flag.Bool("train", false, "neural network: forward+backward")
	balancer := flag.String("balancer", "steal", "token balancer: steal, random, roundrobin, none")
	distributed := flag.Bool("distributed", false, "Gröbner: decentralised pair queues")
	live := flag.Bool("live", false, "run on the goroutine engine instead of the simulator")
	showBars := flag.Bool("bars", false, "print per-node utilisation bars")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-compatible)")
	showMetrics := flag.Bool("metrics", false, "print per-operation latency/size histograms")
	statsJSON := flag.String("stats-json", "", "write run statistics (and metrics) as JSON")
	critPath := flag.Bool("critpath", false, "print critical-path overhead attribution after the run")
	debugAddr := flag.String("debug-http", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	sample := flag.Duration("sample", 500*time.Microsecond,
		"utilisation sampling period under the simulator (0 disables)")
	jitter := flag.Float64("jitter", 0, "percent of seeded jitter on modelled operation costs")
	runs := flag.Int("runs", 1, "repeated seeded runs; > 1 reports elapsed mean/min/max")
	workers := flag.Int("workers", 0, "host worker pool size for -runs > 1 (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1,
		"simulator shards (parallel conservative simulation; 0 = GOMAXPROCS); never changes results, only wall time")
	coalesce := flag.Bool("coalesce", false,
		"merge same-destination small messages within an engine step (batched wire path)")
	sanitize := flag.Bool("sanitize", false,
		"track per-slot signal ledgers and report sync-contract violations at run end")
	sanitizeJSON := flag.String("sanitize-json", "",
		"write the sanitizer report as JSON to this file (implies -sanitize)")
	faultSpec := flag.String("faults", "",
		`fault plan, e.g. "drop=0.05,dup=0.02,reorder=0.1,window=200us,pause=2@1ms-2ms,degrade=*@0s-5msx4"`)
	faultSeed := flag.Int64("fault-seed", 0,
		"pin the fault realisation (0: derive from -seed, so -runs sweeps realisations)")
	retryLease := flag.Duration("retry-lease", 0,
		"failure-detector lease before survivors declare a silent node dead (0: 5x the retry timeout)")
	retryJitter := flag.Float64("retry-jitter", 0,
		"seeded retransmit-backoff jitter fraction in [0,1) (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the host process to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the host process to this file")
	flag.Parse()

	stopProfiles, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fail("%v", err)
		}
	}()

	var costs earth.CostModel
	switch *costsName {
	case "earth":
		costs = earth.EARTHCosts()
	case "mp300":
		costs = earth.MessagePassingCosts(300 * sim.Microsecond)
	case "mp500":
		costs = earth.MessagePassingCosts(500 * sim.Microsecond)
	case "mp1000":
		costs = earth.MessagePassingCosts(1000 * sim.Microsecond)
	default:
		fail("unknown cost model %q", *costsName)
	}
	var bal earth.Balancer
	switch *balancer {
	case "steal":
		bal = earth.BalanceSteal
	case "random":
		bal = earth.BalanceRandomPlace
	case "roundrobin":
		bal = earth.BalanceRoundRobin
	case "none":
		bal = earth.BalanceNone
	default:
		fail("unknown balancer %q", *balancer)
	}

	var rec *obs.Recorder
	if *tracePath != "" || *critPath {
		rec = obs.NewRecorder()
	}
	var met *obs.Metrics
	if *showMetrics || *statsJSON != "" || *debugAddr != "" {
		met = obs.NewMetrics()
	}
	if *shards == 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	if *sanitizeJSON != "" {
		*sanitize = true
	}
	if *retryJitter < 0 || *retryJitter >= 1 {
		fail("-retry-jitter must be in [0,1), got %v", *retryJitter)
	}
	if *nodes < 1 {
		fail("-nodes must be at least 1, got %d", *nodes)
	}
	if *units < 1 {
		fail("-units must be at least 1, got %d", *units)
	}
	cfg := earth.Config{Nodes: *nodes, Costs: costs, Seed: *seed, Balancer: bal,
		JitterPct: *jitter, Shards: *shards, Sanitize: *sanitize,
		Coalesce: earth.CoalesceConfig{Enabled: *coalesce},
		Retry:    earth.RetryPolicy{Lease: sim.Time(retryLease.Nanoseconds()), Jitter: *retryJitter}}
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			fail("bad -faults: %v", err)
		}
		if *faultSeed != 0 {
			plan.Seed = *faultSeed
		}
		if plan.Enabled() {
			cfg.Faults = plan
		}
	} else if *faultSeed != 0 {
		fail("-fault-seed requires -faults")
	}
	// A plan the machine cannot survive is the user's error, reported here;
	// the engines would panic on it.
	if _, err := cfg.ResolveFaults(); err != nil {
		fail("bad -faults on %d nodes: %v", *nodes, err)
	}
	if rec != nil || met != nil {
		// Multi drops the nil collector(s); with neither enabled the
		// Tracer stays nil and the engines skip all event emission.
		if rec != nil && met != nil {
			cfg.Tracer = obs.Multi(rec, met)
		} else if rec != nil {
			cfg.Tracer = rec
		} else {
			cfg.Tracer = met
		}
		cfg.UtilSamplePeriod = sim.Time(sample.Nanoseconds())
	}
	runApp := func(rt earth.Runtime, verbose bool) *earth.Stats {
		logf := func(format string, args ...any) {
			if verbose {
				fmt.Printf(format, args...)
			}
		}
		switch *app {
		case "eigen":
			m, tol := harness.EigenWorkload(*seed)
			res := eigen.ParallelBisect(rt, m, eigen.ParallelConfig{Tol: tol})
			logf("eigenvalues=%d tasks=%d depth=[%d,%d]\n",
				len(res.Eigenvalues), res.Tasks, res.MinDepth, res.MaxDepth)
			return res.Stats
		case "groebner":
			in := groebner.InputByName(*input)
			if in == nil {
				fail("unknown input %q", *input)
			}
			seq, err := groebner.Buchberger(in.F, in.Opt)
			if err != nil {
				fail("sequential baseline: %v", err)
			}
			sc := groebner.Calibrate(seq.Trace, in.PaperSeqMS)
			res, err := groebner.ParallelBuchberger(rt, in.F, groebner.ParallelConfig{
				Opt: in.Opt, StepCost: sc, DistributedQueues: *distributed,
			})
			if err != nil {
				fail("parallel run: %v", err)
			}
			base := groebner.SeqVirtualTime(seq.Trace, sc)
			logf("basis=%d pairs=%d added=%d speedup=%.2f\n",
				len(res.Basis.Polys), res.PairsProcessed, res.Added,
				float64(base)/float64(res.Stats.Elapsed))
			return res.Stats
		case "nn":
			xs := make([][]float32, 4)
			ts := make([][]float32, 4)
			for s := range xs {
				xs[s] = make([]float32, *units)
				ts[s] = make([]float32, *units)
				for i := range xs[s] {
					xs[s][i] = float32((i+s)%17) / 17
					ts[s][i] = float32((i*3+s)%13) / 13
				}
			}
			res := neural.ParallelRun(rt, neural.Square(*units, *seed), xs, ts,
				neural.ParallelConfig{Train: *train, Tree: true, LR: 0.1})
			logf("samples=%d per-sample=%v\n", len(res.Outputs),
				res.Stats.Elapsed/sim.Time(len(res.Outputs)))
			return res.Stats
		case "kb":
			sys, err := rewrite.NewSystem([][2]string{{"aa", ""}, {"bb", ""}, {"ababab", ""}})
			if err != nil {
				fail("%v", err)
			}
			res, err := rewrite.ParallelComplete(rt, sys, rewrite.ParallelConfig{})
			if err != nil {
				fail("%v", err)
			}
			logf("rules=%d pairs=%d added=%d conflicts=%d\n",
				len(res.System.Rules), res.PairsProcessed, res.RulesAdded, res.Rejected)
			return res.Stats
		case "tsp":
			tsp := search.RandomTSP(11, *seed)
			res := search.BranchAndBound(rt, tsp, search.BBConfig{})
			logf("optimum=%.4f expanded=%d improvements=%d\n",
				res.Best, res.Expanded, res.Improvements)
			return res.Stats
		case "polymer":
			res := search.Count(rt, &search.Polymer{Steps: 8}, search.CountConfig{SpawnDepth: 3})
			logf("walks=%d visited=%d\n", res.Total, res.Visited)
			return res.Stats
		default:
			fail("unknown app %q", *app)
			return nil
		}
	}

	if *runs > 1 {
		// The repeated runs are independent simulations evaluated on a
		// host worker pool; only the deterministic summary is printed.
		if *live || *tracePath != "" || *showMetrics || *showBars || *statsJSON != "" ||
			*critPath || *debugAddr != "" || *sanitize {
			fail("-runs > 1 excludes -live, -trace, -metrics, -bars, -stats-json, -critpath, -sanitize and -debug-http")
		}
		sweepRuns(cfg, *runs, *workers, *seed, runApp)
		return
	}

	if *debugAddr != "" {
		srv, err := debugsrv.New(*debugAddr, met)
		if err != nil {
			fail("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}

	var rt earth.Runtime
	if *live {
		cfg.ProfileLabels = true
		rt = livert.New(cfg)
	} else {
		rt = simrt.New(cfg)
	}
	st := runApp(rt, true)

	fmt.Println(st)
	if *sanitize && !st.Sanitize.Clean() {
		fmt.Print(st.Sanitize)
	}
	if *sanitizeJSON != "" {
		b, err := json.MarshalIndent(st.Sanitize, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*sanitizeJSON, append(b, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
	}
	if *showBars {
		fmt.Print(st.Bars())
	}
	if *showMetrics {
		fmt.Print(met.Render())
	}
	if *critPath {
		an := critpath.Analyze(rec.Events(), *nodes, st.Elapsed)
		fmt.Print(an.Render(8))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("%v", err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fail("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("wrote %d events to %s\n", rec.Len(), *tracePath)
	}
	if *statsJSON != "" {
		faultsStr := ""
		if cfg.Faults != nil {
			faultsStr = cfg.Faults.String()
		}
		out := struct {
			App     string       `json:"app"`
			Nodes   int          `json:"nodes"`
			Seed    int64        `json:"seed"`
			Live    bool         `json:"live"`
			Faults  string       `json:"faults,omitempty"`
			Stats   *earth.Stats `json:"stats"`
			Metrics *obs.Metrics `json:"metrics,omitempty"`
		}{*app, *nodes, *seed, *live, faultsStr, st, met}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*statsJSON, append(b, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
	}
}

// sweepRuns repeats the application on fresh runtimes with per-run seeds
// on the harness worker pool and prints the elapsed-time summary.
func sweepRuns(cfg earth.Config, runs, workers int, seed int64, runApp func(earth.Runtime, bool) *earth.Stats) {
	elapsed := harness.Sweep(workers, []int{runs}, func(at []int) sim.Time {
		c := cfg
		c.Seed = seed + int64(at[0])*7919
		return runApp(simrt.New(c), false).Elapsed
	})
	var sp stats.Sample
	for _, e := range elapsed.All() {
		sp.Add(float64(e))
	}
	fmt.Printf("runs=%d elapsed mean=%v min=%v max=%v spread=%.2fx\n",
		runs, sim.Time(sp.Mean()), sim.Time(sp.Min()), sim.Time(sp.Max()), sp.Spread())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "earthsim: "+format+"\n", args...)
	os.Exit(2)
}
