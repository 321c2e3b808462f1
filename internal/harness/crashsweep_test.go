package harness

import (
	"strings"
	"testing"
)

// crashCfg keeps the sweep small for the test suite: 5 nodes (the floor
// for k=3 kills), two crash phasings per cell.
func crashCfg(workers int) Config {
	return Config{Runs: 2, Nodes: []int{5}, Seed: 1, Workers: workers}
}

// TestCrashSweepConverges is the acceptance criterion: every workload
// must converge to the fault-free result for every kill count and every
// crash phasing.
func TestCrashSweepConverges(t *testing.T) {
	r := CrashSweep(crashCfg(0))
	out := r.String()
	for _, line := range r.Lines {
		if !strings.Contains(line, "converged") {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "converged" {
				a, b, ok := strings.Cut(fields[i+1], "/")
				if !ok || a != b {
					t.Errorf("non-converged cell: %s", line)
				}
			}
		}
	}
	if !strings.Contains(out, "Gröbner/Lazard") || !strings.Contains(out, "Eigenvalue") ||
		!strings.Contains(out, "NN-forward") {
		t.Errorf("sweep missing workloads:\n%s", out)
	}
	if !strings.Contains(out, "k=3") || !strings.Contains(out, "detect=") {
		t.Errorf("sweep missing kill axis or detection latency:\n%s", out)
	}
}
