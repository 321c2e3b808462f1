package harness

import (
	"fmt"
	"strings"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/neural"
	"earth/internal/sim"
)

// This file implements the chaos sweep: every paper workload re-run
// under a deterministic fault plan (message drops with modelled
// retry/timeout recovery, duplication filtered by sequence-numbered
// delivery, bounded reordering) next to a clean baseline on the same
// machine size. A workload "converges" when its chaos-run result
// fingerprint is identical to the clean run's — the application-level
// statement that the recovery machinery delivered every message exactly
// once. The whole sweep is deterministic: same Config and Plan, same
// Report, byte for byte, regardless of Workers.

// outcome is one cell of a fault sweep: a canonical, schedule-
// independent fingerprint of the workload's result, and the statistics
// of the run that produced it.
type outcome struct {
	fp string
	st *earth.Stats
}

// faultWorkload is one chaos-sweep subject; run executes it on rt.
type faultWorkload struct {
	name string
	run  func(rt earth.Runtime) outcome
}

// faultWorkloads returns the sweep subjects: a clustered eigenvalue
// bisection, the three Table 2 Gröbner inputs, and a neural forward
// pass. Sizes are trimmed so the full grid stays test-suite friendly.
func faultWorkloads(seed int64) []faultWorkload {
	wl := []faultWorkload{{
		name: "Eigenvalue",
		run: func(rt earth.Runtime) outcome {
			t := eigen.Clustered(96, 8, seed)
			res := eigen.ParallelBisect(rt, t, eigen.ParallelConfig{Tol: 1e-5})
			return outcome{fmt.Sprintf("%.12g", res.Eigenvalues), res.Stats}
		},
	}}
	for _, in := range groebner.PaperInputs() {
		in := in
		wl = append(wl, faultWorkload{
			name: "Gröbner/" + in.Name,
			run: func(rt earth.Runtime) outcome {
				res, err := groebner.ParallelBuchberger(rt, in.F,
					groebner.ParallelConfig{Opt: in.Opt})
				if err != nil {
					panic(err)
				}
				var b strings.Builder
				for _, p := range res.Basis.Reduce().Polys {
					b.WriteString(p.String())
					b.WriteByte(';')
				}
				return outcome{b.String(), res.Stats}
			},
		})
	}
	wl = append(wl, faultWorkload{
		name: "NN-forward",
		run: func(rt earth.Runtime) outcome {
			xs, ts := paperNetOf(24).samples(paperSamples)
			res := neural.ParallelRun(rt, forwardNet(24), xs, ts,
				neural.ParallelConfig{Tree: true})
			return outcome{fmt.Sprintf("%v", res.Outputs), res.Stats}
		},
	})
	return wl
}

// DefaultFaultPlan is the chaos sweep's plan when the caller supplies
// none: the acceptance envelope of 5% drops plus duplication plus
// reordering.
func DefaultFaultPlan() *faults.Plan {
	return &faults.Plan{Drop: 0.05, Dup: 0.02, Reorder: 0.1, Window: 200 * sim.Microsecond}
}

// faultRuns is the runner the fault sweeps share. Phase one runs every
// workload fault-free on each machine size of nodeList; phase two runs
// the workload × nodes × axes… × cfg.Runs grid, each cell on the
// earth.Config that perturb derives from the clean configuration, the
// cell's coordinates beyond (workload, nodes) — one per axis, then the
// run index — and the clean run's statistics. The phases cannot merge:
// crash times and partition windows are fractions of the clean makespan.
func faultRuns(cfg Config, wls []faultWorkload, nodeList, axes []int,
	perturb func(ec earth.Config, at []int, clean *earth.Stats) earth.Config) (clean, runs *Grid[outcome]) {
	base := func(at []int) earth.Config {
		return earth.Config{Nodes: nodeList[at[1]], Seed: cfg.Seed}
	}
	dims := []int{len(wls), len(nodeList)}
	clean = Sweep(cfg.Workers, dims, func(at []int) outcome { return wls[at[0]].run(simrt.New(base(at))) })
	dims = append(append(dims, axes...), cfg.Runs)
	runs = Sweep(cfg.Workers, dims, func(at []int) outcome {
		return wls[at[0]].run(simrt.New(perturb(base(at), at[2:], clean.At(at[0], at[1]).st)))
	})
	return clean, runs
}

// tally is the convergence and slowdown fold of one report line: its
// perturbed cells against their clean baselines.
type tally struct {
	runs, converged int
	slowdown        float64 // sum of makespan ratios against clean
}

func (t *tally) add(clean, c outcome) {
	t.runs++
	if c.fp == clean.fp {
		t.converged++
	}
	if clean.st.Elapsed > 0 {
		t.slowdown += float64(c.st.Elapsed) / float64(clean.st.Elapsed)
	}
}

func (t *tally) meanSlowdown() float64 { return t.slowdown / float64(t.runs) }

// CheckFaultPlan reports whether every machine size FaultSweep runs under
// cfg survives plan: some node must be left to adopt work (see
// earth.Config.ResolveFaults). cmd/paperfigs calls it on a user's -faults
// before any engine is built.
func CheckFaultPlan(cfg Config, plan *faults.Plan) error {
	for _, n := range nodesMin(cfg.WithDefaults().Nodes, 2) {
		if _, err := (earth.Config{Nodes: n, Faults: plan}).ResolveFaults(); err != nil {
			return fmt.Errorf("on %d nodes: %v", n, err)
		}
	}
	return nil
}

// FaultSweep runs every workload across the node sweep: one clean run
// plus cfg.Runs chaos runs per (workload, nodes) cell. Chaos run k gets
// a distinct fault realisation — plan seeds are derived per run — so
// the convergence rate samples cfg.Runs independent fault histories per
// cell.
func FaultSweep(cfg Config, plan *faults.Plan) *Report {
	cfg = cfg.WithDefaults()
	if !plan.Enabled() {
		plan = DefaultFaultPlan()
	}
	r := &Report{ID: "Chaos", Title: fmt.Sprintf(
		"Fault-injection sweep: plan [%s], %d chaos runs per cell vs clean baseline", plan, cfg.Runs)}
	wls := faultWorkloads(cfg.Seed)
	nodeList := nodesMin(cfg.Nodes, 2)
	if len(nodeList) == 0 {
		// Nothing ran: a mean over no runs is NaN, so say that instead.
		r.add("%-20s %s", "TOTAL", noPeak)
		return r
	}
	clean, runs := faultRuns(cfg, wls, nodeList, nil, func(ec earth.Config, at []int, _ *earth.Stats) earth.Config {
		run := int64(at[0])
		ec.Seed += (run + 1) * 7919 // run 0 of the seed sequence is the clean baseline
		p := *plan
		if p.Seed != 0 {
			// Distinct realisation per run even with a pinned plan
			// seed; run 0 of a pinned plan stays exactly reproducible
			// through cmd/earthsim's -fault-seed.
			p.Seed += run * 9973
		}
		ec.Faults = &p
		return ec
	})

	var total tally
	for wi, wl := range wls {
		var t tally
		var sum earth.NodeStats
		for ni := range nodeList {
			for _, c := range runs.Sub(wi, ni).All() {
				t.add(clean.At(wi, ni), c)
				sum.Add(c.st.Total())
			}
		}
		r.add("%-20s converged %3d/%-3d  mean slowdown %.2fx  faults=%-6d retries=%-6d recovered=%d",
			wl.name, t.converged, t.runs, t.meanSlowdown(), sum.FaultsInjected, sum.Retries, sum.Recovered)
		total.converged += t.converged
		total.runs += t.runs
	}
	r.add("%-20s converged %3d/%-3d over nodes=%v", "TOTAL", total.converged, total.runs, nodeList)
	return r
}
