package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResult(path string) (*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the distance between a timing's quartiles as a share of its
// median; 0 for counts, which have no samples behind them.
func spread(v value) float64 {
	if v.Q3 == 0 || v.Value == 0 {
		return 0
	}
	return (v.Q3 - v.Q1) / v.Value
}

// verdict judges metric d moving from a to b. worse is the relative
// change in the metric's bad direction.
func verdict(d metricDef, a, b value) (worse float64, word string) {
	worse = (b.Value - a.Value) / math.Abs(a.Value)
	if a.Value == 0 {
		worse = b.Value // a zero base: any rise is a regression, by any amount
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(spread(a), spread(b)) > d.Bound && d.Bound > 0:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and metric, both medians, the
// relative difference, the bound and a verdict, and reports whether any
// metric regressed. Metrics whose run-to-run spread is wider than their
// bound are called unresolved, not unchanged.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %s, seed %d)\nB: %s (commit %s, seed %d)\n",
		pathA, a.Host.Commit, a.Seed, pathB, b.Host.Commit, b.Seed)
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, x := range b.Workloads {
			if x.Name == wa.Name {
				wb = x
			}
		}
		if wb == nil {
			continue
		}
		for _, defs := range [][]metricDef{endToEnd, extraDefs} {
			for _, d := range defs {
				va, okA := wa.Metrics[d.Name]
				vb, okB := wb.Metrics[d.Name]
				if !okA || !okB {
					continue
				}
				worse, word := verdict(d, va, vb)
				regressed = regressed || word == "regressed"
				fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
					wa.Name, d.Name, va.Value, vb.Value, 100*worse, 100*d.Bound, word)
			}
		}
	}
	return regressed, nil
}
