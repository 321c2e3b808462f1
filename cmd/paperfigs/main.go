// Command paperfigs regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	paperfigs [-exp NAME] [-runs N] [-nodes 1,2,4,8,11,14,16,20] [-seed S] [-workers W]
//	          [-shards S] [-json out.json] [-faults PLAN] [-nocoalesce]
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
// byte-identical to -workers 1 for the same seed. Independently,
// -shards splits each simulated machine across host cores with
// conservative time-windowed parallel simulation — also byte-identical
// for every value, so the two host-parallelism axes compose freely.
// -json additionally writes the reports — including the numeric series
// behind each figure — as machine-readable JSON, so plots can be
// regenerated without reparsing the text output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"earth/internal/faults"
	"earth/internal/harness"
	"earth/internal/hostprof"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(harness.ExperimentNames(), "|"))
	runs := flag.Int("runs", 5, "repeated runs per Gröbner configuration")
	nodes := flag.String("nodes", "", "comma-separated node counts (default paper sweep)")
	seed := flag.Int64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "host worker pool size for sweep cells (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1,
		"simulator shards per cell (parallel conservative simulation; 0 = GOMAXPROCS); never changes results, only wall time")
	jsonPath := flag.String("json", "", "write reports (with figure series) as JSON")
	faultSpec := flag.String("faults", "",
		"fault plan for -exp chaos (default: the 5% drop + dup + reorder envelope)")
	noCoalesce := flag.Bool("nocoalesce", false,
		"pin the per-message wire path (disable same-destination coalescing)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the host process to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the host process to this file")
	flag.Parse()

	stopProfiles, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			os.Exit(1)
		}
	}()

	if *shards == 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	cfg := harness.Config{Runs: *runs, Seed: *seed, Workers: *workers,
		Shards: *shards, NoCoalesce: *noCoalesce}
	if *nodes != "" {
		for _, part := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err == nil && n < 1 {
				err = fmt.Errorf("a machine has at least 1 node")
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: bad -nodes entry %q: %v\n", part, err)
				os.Exit(2)
			}
			cfg.Nodes = append(cfg.Nodes, n)
		}
	}

	plan, err := faults.Parse(*faultSpec)
	if err == nil {
		err = harness.CheckFaultPlan(cfg, plan)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: bad -faults: %v\n", err)
		os.Exit(2)
	}
	exps, err := harness.Select(*exp, plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(2)
	}
	var reports []*harness.Report
	for _, e := range exps {
		reports = append(reports, e.Run(cfg))
	}
	for _, r := range reports {
		fmt.Println(r)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			os.Exit(1)
		}
	}
}
