package harness

import (
	"fmt"
	"slices"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/obs"
)

// This file implements the overhead-attribution experiment: every chaos
// sweep workload re-run traced, its event stream fed to
// internal/critpath, and every nanosecond of machine time attributed to
// {compute, comm, sched, recovery, idle}. This is the paper's Section-3
// accounting — USE efficiency and the compute-to-overhead ratio that
// decide each speedup curve — made causal and exact. Each workload also
// runs once under the default chaos plan so the recovery column is
// populated by real retry/timeout machinery rather than staying zero.
//
// Determinism: the traced runs are ordinary simrt cells (byte-stable per
// Config), critpath is order-stable integer arithmetic, and the cells
// fold in index order — the Report is byte-identical for a given Config
// regardless of Workers.

// Overhead attributes machine time for every sweep workload on the
// largest configured machine size, clean and under the default fault
// plan, and reports the five-way breakdown plus the longest
// critical-path segments. Cells run on the batched wire path (the one
// the NN and MP-comparison figures use) unless Config.NoCoalesce pins
// the per-message path, so the before/after pair isolates what
// coalescing does to the comm column.
func Overhead(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	nodes := max(2, slices.Max(cfg.Nodes))
	wire := "batched wire path"
	if cfg.NoCoalesce {
		wire = "per-message wire path"
	}
	r := &Report{ID: "Overhead", Title: fmt.Sprintf(
		"Causal overhead attribution per app (P=%d, critical-path analysis, %s)", nodes, wire)}
	wls := faultWorkloads(cfg.Seed)
	plan := DefaultFaultPlan()
	plan.Seed = cfg.Seed

	// Not faultRuns: the chaos cells need nothing from the clean ones, so
	// both run in one pool, and each cell keeps its analysis, not its stats.
	labels := []string{"clean", "chaos"}
	cells := Sweep(cfg.Workers, []int{len(wls), len(labels)}, func(at []int) *critpath.Analysis {
		rec := obs.NewRecorder()
		ec := earth.Config{Nodes: nodes, Seed: cfg.Seed, Tracer: rec, Coalesce: cfg.coalesce()}
		if at[1] == 1 {
			p := *plan
			ec.Faults = &p
		}
		st := wls[at[0]].run(simrt.New(ec)).st
		return critpath.Analyze(rec.Events(), nodes, st.Elapsed)
	})

	r.add("%-22s %-6s %12s  %9s %9s %9s %9s %9s  %s", "app", "plan",
		"makespan", "compute", "comm", "sched", "recovery", "idle", "path(compute)")
	for wi, wl := range wls {
		for v, label := range labels {
			an := cells.At(wi, v)
			f := an.Total.Fractions()
			pf := an.PathBreakdown.Fractions()
			r.add("%-22s %-6s %12v  %9.6f %9.6f %9.6f %9.6f %9.6f  %.6f",
				wl.name, label, an.Makespan,
				f[critpath.Compute], f[critpath.Comm], f[critpath.Sched],
				f[critpath.Recovery], f[critpath.Idle], pf[critpath.Compute])
		}
	}
	r.add("")
	r.add("longest critical-path segments (clean runs, top 3 per app):")
	for wi, wl := range wls {
		for _, s := range cells.At(wi, 0).TopSegments(3) {
			r.add("  %-22s [%12v .. %12v] node %-3d %-8s %s",
				wl.name, s.Start, s.End, s.Node, s.Cat, s.Label)
		}
	}

	// Headline comparisons in the paper's framing: overhead is what
	// separates the measured curves from the ideal ones.
	for wi, wl := range wls {
		clean, chaos := cells.At(wi, 0), cells.At(wi, 1)
		fc := clean.Total.Fractions()
		overhead := fc[critpath.Comm] + fc[critpath.Sched]
		r.compare(wl.name+" compute:overhead (USE framing)",
			"compute dominates at paper grain",
			fmt.Sprintf("%.3f : %.3f", fc[critpath.Compute], overhead))
		dr := chaos.Total.Fractions()[critpath.Recovery]
		r.compare(wl.name+" recovery share under chaos plan", "-",
			fmt.Sprintf("%.6f", dr))
	}
	return r
}
