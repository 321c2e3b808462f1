// Command paperfigs regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	paperfigs [-exp NAME] [-runs N] [-nodes 1,2,4,8,11,14,16,20] [-seed S] [-workers W]
//	          [-json out.json] [-faults PLAN] [-nocoalesce]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// NAME is a row of the experiment table (harness.Experiments), matched
// case-insensitively, "ablations" for every ablation row, or "all" for
// the paper's tables, figures and ablations (TestExpNames keeps this
// list equal to the table):
//
//	all|table1|figure2|table2|figure4|figure5|table3|figure7|figure8|
//	ablations|ablationnntree|ablationeigenplacement|
//	ablationgroebnerscheduling|ablationnnmodes|ablationsearchapps|
//	ablationknuthbendix|ablationportedmachines|
//	chaos|crash|partition|overhead
//
// -exp chaos runs the fault-injection sweep: every workload under a
// deterministic drop/dup/reorder plan (-faults, seed-pinnable) next to a
// clean baseline, reporting convergence rate and slowdown per workload.
//
// -exp crash runs the crash-stop sweep: every workload under k=1..3
// deterministic node kills staggered across the run, reporting
// convergence rate, detection latency, recovery effort and slowdown
// against the clean baseline.
//
// -exp partition runs the partition sweep: every workload under network
// partitions swept across the window-duration × detection-lease grid,
// reporting wrong-verdict counts, epoch-fenced work lost and makespan
// overhead — the cost envelope of fallible failure detection.
//
// -exp overhead re-runs every sweep workload traced, reconstructs the
// causal DAG with internal/critpath, and attributes every nanosecond of
// machine time to {compute, comm, sched, recovery, idle} per app —
// clean and under the default chaos plan — plus the longest
// critical-path segments. The report is byte-identical across runs for
// a given seed.
//
// The NN figures (7, 8), the Figure 5 message-passing comparison and
// -exp overhead run on the batched wire path: same-destination small
// messages coalesce within an engine step into one wire transfer.
// -nocoalesce pins the pre-batching per-message path everywhere, which
// is how the overhead-attribution before/after tables in EXPERIMENTS.md
// are produced.
//
// The paper used 20 runs per Gröbner configuration; -runs 20 reproduces
// that (slower). The default of 5 gives stable means in seconds.
// Sweeps decompose into independent simulation cells evaluated on a
// host worker pool (-workers, default GOMAXPROCS); the output is
// byte-identical to -workers 1 for the same seed.
// -json additionally writes the reports — including the numeric series
// behind each figure — as machine-readable JSON, so plots can be
// regenerated without reparsing the text output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"earth/internal/faults"
	"earth/internal/harness"
	"earth/internal/hostprof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: parse the flags into a sweep configuration and a
// list of experiments, create the output files, run the experiments, and
// print and write the reports. It returns the exit code: 2 for a bad
// argument (before any experiment runs), 1 for a failure afterwards, each
// after one "paperfigs: …" line on stderr.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "paperfigs: %v\n", err)
		return code
	}
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the FlagSet has printed the error and the usage
	}
	cfg, exps, err := o.plan()
	if err != nil {
		return fail(2, err)
	}
	var jsonFile *os.File
	if o.jsonPath != "" {
		if jsonFile, err = os.Create(o.jsonPath); err != nil {
			return fail(2, err)
		}
		defer func() {
			if err := jsonFile.Close(); err != nil && code == 0 {
				code = fail(1, err)
			}
		}()
	}
	stopProfiles, err := hostprof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return fail(2, err)
	}
	defer func() {
		if err := stopProfiles(); err != nil && code == 0 {
			code = fail(1, err)
		}
	}()

	var reports []*harness.Report
	for _, e := range exps {
		reports = append(reports, e.Run(cfg))
	}
	for _, r := range reports {
		fmt.Fprintln(stdout, r)
	}
	if jsonFile != nil {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			_, err = jsonFile.Write(append(b, '\n'))
		}
		if err != nil {
			return fail(1, err)
		}
	}
	return 0
}

// options is the command line as the flags spell it.
type options struct {
	exp, nodes, faults, jsonPath, cpuProfile, memProfile string
	runs, workers                                        int
	seed                                                 int64
	noCoalesce                                           bool
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.exp, "exp", "all", "experiment to run: "+strings.Join(harness.ExperimentNames(), "|"))
	fs.IntVar(&o.runs, "runs", 5, "repeated runs per Gröbner configuration")
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated node counts (default paper sweep)")
	fs.Int64Var(&o.seed, "seed", 1, "base random seed")
	fs.IntVar(&o.workers, "workers", 0, "host worker pool size for sweep cells (0 = GOMAXPROCS)")
	fs.StringVar(&o.jsonPath, "json", "", "write reports (with figure series) as JSON")
	fs.StringVar(&o.faults, "faults", "",
		"fault plan for -exp chaos (default: the 5% drop + dup + reorder envelope)")
	fs.BoolVar(&o.noCoalesce, "nocoalesce", false,
		"pin the per-message wire path (disable same-destination coalescing)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the host process to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the host process to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// plan validates the options and returns the sweep configuration and the
// experiments -exp selects.
func (o *options) plan() (harness.Config, []harness.Experiment, error) {
	cfg := harness.Config{Runs: o.runs, Seed: o.seed, Workers: o.workers, NoCoalesce: o.noCoalesce}
	if o.nodes != "" {
		for _, part := range strings.Split(o.nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err == nil && n < 1 {
				err = errors.New("a machine has at least 1 node")
			}
			if err != nil {
				return cfg, nil, fmt.Errorf("bad -nodes entry %q: %v", part, err)
			}
			cfg.Nodes = append(cfg.Nodes, n)
		}
	}
	plan, err := faults.Parse(o.faults)
	if err == nil {
		err = harness.CheckFaultPlan(cfg, plan)
	}
	if err != nil {
		return cfg, nil, fmt.Errorf("bad -faults: %v", err)
	}
	exps, err := harness.Select(o.exp, plan)
	return cfg, exps, err
}
