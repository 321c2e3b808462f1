package harness

import (
	"fmt"
	"slices"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// This file implements the crash sweep: every chaos-sweep workload
// re-run under crash-stop plans that kill k=1..3 nodes mid-run, next to
// a clean baseline on the same machine size. A run "converges" when its
// result fingerprint is identical to the clean run's — the application-
// level statement that failure detection, frame adoption and token
// re-dispatch lost no work. Like the chaos sweep, the whole grid is
// deterministic: same Config, same Report, byte for byte, regardless of
// Workers.

// crashKills is the sweep's failure axis: how many nodes die per run.
var crashKills = []int{1, 2, 3}

// crashVictims returns k distinct victims for one run, never node 0
// (which hosts each workload's control frame and result collection, so
// the clean baseline and every crashed cell agree on where the
// fingerprint materialises).
func crashVictims(k, nodes, run int) []int {
	start := run * 7 % (nodes - 1)
	out := make([]int, k)
	for j := range out {
		out[j] = 1 + (start+j)%(nodes-1)
	}
	return out
}

// crashPlan schedules k kills at staggered fractions of the clean run's
// makespan, varied per run so cfg.Runs samples distinct crash phases.
func crashPlan(k, nodes, run int, clean sim.Time, seed int64) *faults.Plan {
	p := &faults.Plan{Seed: seed + int64(run)*7919}
	for j, v := range crashVictims(k, nodes, run) {
		frac := 0.15 + 0.22*float64(j) + 0.05*float64(run)
		for frac > 0.85 {
			frac -= 0.7
		}
		p.Crash = append(p.Crash, faults.Crash{Node: v, At: sim.Time(frac * float64(clean))})
	}
	return p
}

// CrashSweep runs every workload on one machine size under k=1..3
// crash-stop failures, cfg.Runs crash phasings per (workload, k) cell,
// and reports convergence, slowdown and recovery effort against the
// clean baseline.
func CrashSweep(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	// One machine size, large enough that three kills leave survivors
	// with headroom.
	nodes := max(5, slices.Max(cfg.Nodes))
	wls := faultWorkloads(cfg.Seed)
	clean, runs := faultRuns(cfg, wls, []int{nodes}, []int{len(crashKills)},
		func(ec earth.Config, at []int, clean *earth.Stats) earth.Config {
			ec.Faults = crashPlan(crashKills[at[0]], nodes, at[1], clean.Elapsed, cfg.Seed)
			return ec
		})

	r := &Report{ID: "Crash", Title: fmt.Sprintf(
		"Crash-stop sweep: k=%v node kills on %d nodes, %d phasings per cell vs clean baseline",
		crashKills, nodes, cfg.Runs)}
	var total tally
	for wi, wl := range wls {
		for ki, k := range crashKills {
			var t tally
			var detect sim.Time
			var sum earth.NodeStats
			for _, c := range runs.Sub(wi, 0, ki).All() {
				t.add(clean.At(wi, 0), c)
				tot := c.st.Total()
				detect += tot.DetectionLatency / sim.Time(k)
				sum.Add(tot)
			}
			r.add("%-20s k=%d  converged %2d/%-2d  mean slowdown %.2fx  detect=%v  replayed=%-5d reassigned=%d",
				wl.name, k, t.converged, t.runs, t.meanSlowdown(),
				detect/sim.Time(t.runs), sum.FramesReplayed, sum.TokensReassigned)
			total.converged += t.converged
			total.runs += t.runs
		}
	}
	r.add("%-20s converged %3d/%-3d on %d nodes", "TOTAL", total.converged, total.runs, nodes)
	return r
}
