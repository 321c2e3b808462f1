package harness

import (
	"fmt"
	"slices"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// This file implements the partition sweep: every chaos-sweep workload
// re-run under network partitions whose duration is swept against the
// failure-detection lease. The grid deliberately straddles the detector's
// blind spot: a window shorter than the lease must be absorbed by the
// retry machinery (zero wrong verdicts, result convergence), while a
// window longer than the lease forces wrong death declarations, epoch-
// fenced adoption on the majority side and self-fence-plus-rejoin on the
// minority — costing work (fenced messages are discarded, so results may
// diverge) but never termination. Like the other sweeps, the whole grid
// is deterministic and byte-identical regardless of Workers.

// partDurFracs sweeps the partition window length as a fraction of the
// workload's clean makespan.
var partDurFracs = []float64{0.3, 1.0}

// partLeaseFracs sweeps the detection lease as a fraction of the clean
// makespan: the short lease is outlived by every window in partDurFracs
// (wrong verdicts), the long one only by the longest.
var partLeaseFracs = []float64{0.05, 0.6}

// partitionPlan cuts the machine into majority {0..nodes-3} and minority
// {nodes-2, nodes-1}, with the window phase varied per run.
func partitionPlan(nodes, run int, dur sim.Time, clean sim.Time, seed int64) *faults.Plan {
	var groups [2][]int
	for n := 0; n < nodes-2; n++ {
		groups[0] = append(groups[0], n)
	}
	groups[1] = []int{nodes - 2, nodes - 1}
	from := sim.Time((0.1 + 0.07*float64(run)) * float64(clean))
	return &faults.Plan{Seed: seed + int64(run)*7919,
		Partition: []faults.Partition{{From: from, To: from + dur, Groups: groups}}}
}

// PartitionSweep runs every workload on one machine size across the
// partition-duration × detection-lease grid, cfg.Runs window phasings
// per cell, and reports wrong-verdict counts, work lost to fencing and
// makespan overhead against the clean baseline.
func PartitionSweep(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	nodes := max(5, slices.Max(cfg.Nodes))
	wls := faultWorkloads(cfg.Seed)
	clean, runs := faultRuns(cfg, wls, []int{nodes}, []int{len(partDurFracs), len(partLeaseFracs)},
		func(ec earth.Config, at []int, clean *earth.Stats) earth.Config {
			dur := sim.Time(partDurFracs[at[0]] * float64(clean.Elapsed))
			lease := sim.Time(partLeaseFracs[at[1]] * float64(clean.Elapsed))
			ec.Faults = partitionPlan(nodes, at[2], dur, clean.Elapsed, cfg.Seed)
			ec.Retry = earth.RetryPolicy{Lease: lease}
			return ec
		})

	r := &Report{ID: "Partition", Title: fmt.Sprintf(
		"Partition sweep: window duration × detection lease (fractions of clean makespan) on %d nodes, %d phasings per cell",
		nodes, cfg.Runs)}
	for wi, wl := range wls {
		for di, df := range partDurFracs {
			for li, lf := range partLeaseFracs {
				var t tally
				var sum earth.NodeStats
				for _, c := range runs.Sub(wi, 0, di, li).All() {
					t.add(clean.At(wi, 0), c)
					sum.Add(c.st.Total())
				}
				r.add("%-20s dur=%.2f lease=%.2f  converged %2d/%-2d  wrong=%-3d rejoins=%-3d lost-msgs=%-4d  mean slowdown %.2fx",
					wl.name, df, lf, t.converged, t.runs, sum.WrongVerdicts, sum.Rejoins, sum.MsgsFenced, t.meanSlowdown())
			}
		}
	}
	return r
}
