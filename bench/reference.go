package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"earth/internal/groebner"
)

// referencePath is where -update-reference writes, relative to the repo
// root the benchmark is run from.
const referencePath = "bench/testdata/reference.json"

// referenceSeed is the only seed the committed simulated values are for;
// other seeds keep the self-consistency checks and skip the comparison.
const referenceSeed = 1

//go:embed testdata/reference.json
var referenceJSON []byte

// reference is the committed baseline of simulated results. A change that
// only makes the simulator faster on the host must leave every value
// identical; a deliberate model change re-baselines with
// -update-reference in a change of its own.
type reference struct {
	Seed int64 `json:"seed"`
	// Paper holds the paper's published headline values (read off its
	// tables and figures), keyed like repResult.paper.
	Paper map[string]float64 `json:"paper"`
	// Workloads holds each deterministic workload's simulated values at
	// full size, in the order its rep emits them.
	Workloads map[string][]float64 `json:"workloads"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("bench: embedded reference: %w", err)
	}
	return &ref, nil
}

// paperValues returns every published value the benchmark compares
// against: the reference file's, plus Table 2's task and added-polynomial
// counts, which the groebner package already carries per input.
func paperValues(ref *reference) map[string]float64 {
	paper := map[string]float64{}
	for k, v := range ref.Paper {
		paper[k] = v
	}
	for _, in := range groebner.PaperInputs() {
		paper["table2.tasks."+in.Name] = float64(in.PaperTasks)
		paper["table2.added."+in.Name] = float64(in.PaperAdded)
	}
	return paper
}

// drift counts the positions at which got differs from want (a length
// mismatch counts every unmatched position).
func drift(got, want []float64) (compared, differing int) {
	compared = max(len(got), len(want))
	for i := 0; i < compared; i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			differing++
		}
	}
	return compared, differing
}

// paperError is the mean absolute relative error, in percent, of the
// measured headline quantities against the paper's; NaN when the rep
// measured none of them (engine workloads, reduced node lists).
func paperError(measured, paper map[string]float64) float64 {
	var sum float64
	var n int
	for k, m := range measured {
		if p, ok := paper[k]; ok && p != 0 {
			sum += math.Abs(m-p) / math.Abs(p)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * sum / float64(n)
}

// paperLines renders measured-vs-paper, sorted by key, for the report.
func paperLines(measured, paper map[string]float64) []string {
	keys := make([]string, 0, len(measured))
	for k := range measured {
		if _, ok := paper[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%-34s paper %-8g measured %.4g", k, paper[k], measured[k])
	}
	return lines
}

// updateReference re-runs every deterministic workload once at the
// reference seed and full size and rewrites the simulated values, keeping
// the paper's published ones.
func updateReference() error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	ref.Seed = referenceSeed
	ref.Workloads = map[string][]float64{}
	for _, w := range workloadDefs {
		res := setups[w.Name](referenceSeed, fullSizes).rep(nil)
		if res.failed > 0 {
			return fmt.Errorf("bench: %s fails its own checks: %v", w.Name, res.why)
		}
		if res.values != nil {
			ref.Workloads[w.Name] = res.values
		}
	}
	out, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(out, '\n'), 0o644)
}
