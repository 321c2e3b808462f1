package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"earth/internal/faults"
	"earth/internal/sim"
)

// chaosCfg keeps the sweep grid small enough for the test suite while
// still covering multiple machine sizes and fault realisations.
func chaosCfg(workers int) Config {
	return Config{Runs: 2, Nodes: []int{2, 5}, Seed: 1, Workers: workers}
}

// TestFaultSweepConverges is the acceptance criterion: a seeded plan
// with >= 5% drops plus duplication plus reordering must converge to the
// fault-free result on every workload — including all three Gröbner
// Figure 4 inputs — on every machine size and every realisation.
func TestFaultSweepConverges(t *testing.T) {
	plan := &faults.Plan{Seed: 11, Drop: 0.05, Dup: 0.02, Reorder: 0.1, Window: 200 * sim.Microsecond}
	r := FaultSweep(chaosCfg(0), plan)
	out := r.String()
	for _, line := range r.Lines {
		if !strings.Contains(line, "converged") {
			continue
		}
		// Every "converged a/b" pair must have a == b.
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "converged" {
				frac := fields[i+1]
				a, b, ok := strings.Cut(frac, "/")
				if !ok || a != b {
					t.Errorf("non-converged cell: %s", line)
				}
			}
		}
	}
	if !strings.Contains(out, "Gröbner/Lazard") || !strings.Contains(out, "Gröbner/Katsura-5") ||
		!strings.Contains(out, "Eigenvalue") || !strings.Contains(out, "NN-forward") {
		t.Errorf("sweep missing workloads:\n%s", out)
	}
	// The plan must actually have intervened somewhere.
	if !strings.Contains(out, "retries=") || strings.Contains(out, "faults=0 ") {
		t.Errorf("fault plan appears inert:\n%s", out)
	}

	// A node list with no machine the sweep can run on (the workloads need
	// a second node) runs nothing; the report says so instead of printing
	// convergence and a mean slowdown over no runs.
	r = FaultSweep(Config{Runs: 2, Nodes: []int{1}, Seed: 1}, plan)
	if text := r.String(); !strings.Contains(text, noPeak) || strings.Contains(text, "NaN") || strings.Contains(text, "0/0") {
		t.Errorf("report of an empty sweep:\n%s", text)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Errorf("report of an empty sweep does not marshal: %v", err)
	}
}
