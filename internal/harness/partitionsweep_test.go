package harness

import (
	"strconv"
	"strings"
	"testing"
)

func partCfg(workers int) Config {
	return Config{Runs: 2, Nodes: []int{5}, Seed: 1, Workers: workers}
}

// TestPartitionSweepBlindSpot is the acceptance criterion: cells whose
// window stays under the lease must be invisible (zero wrong verdicts,
// full convergence), and at least one cell past the lease must produce
// wrong verdicts with matching rejoins.
func TestPartitionSweepBlindSpot(t *testing.T) {
	r := PartitionSweep(partCfg(0))
	out := r.String()
	sawFence := false
	for _, line := range r.Lines {
		if !strings.Contains(line, "converged") {
			continue
		}
		fields := strings.Fields(line)
		get := func(key string) string {
			for _, f := range fields {
				if v, ok := strings.CutPrefix(f, key+"="); ok {
					return v
				}
			}
			t.Fatalf("line missing %s=: %s", key, line)
			return ""
		}
		dur, _ := strconv.ParseFloat(get("dur"), 64)
		lease, _ := strconv.ParseFloat(get("lease"), 64)
		wrong, _ := strconv.Atoi(get("wrong"))
		rejoins, _ := strconv.Atoi(get("rejoins"))
		if dur <= lease {
			if wrong != 0 || rejoins != 0 {
				t.Errorf("window under the lease fenced anyway: %s", line)
			}
			conv := fields[slicesIndex(fields, "converged")+1]
			a, b, ok := strings.Cut(conv, "/")
			if !ok || a != b {
				t.Errorf("window under the lease did not converge: %s", line)
			}
		}
		if wrong > 0 {
			sawFence = true
			if rejoins != wrong {
				t.Errorf("rejoins != wrong verdicts: %s", line)
			}
		}
	}
	if !sawFence {
		t.Errorf("no cell crossed the lease — the sweep never exercised fencing:\n%s", out)
	}
	if !strings.Contains(out, "Gröbner/Lazard") || !strings.Contains(out, "Eigenvalue") {
		t.Errorf("sweep missing workloads:\n%s", out)
	}
}

func slicesIndex(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}
