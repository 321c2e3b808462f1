package harness

import (
	"encoding/json"
	"testing"
)

// TestParallelSweepDeterminism is the safety net for the host-parallel
// sweeps: for every row of the experiment table, the Report text and the
// Series JSON produced with a multi-worker pool must be byte-identical
// to the Workers=1 output for the same seed, and a repeated pooled
// invocation must reproduce them again. Run under -race this also checks
// the cells really are independent.
func TestParallelSweepDeterminism(t *testing.T) {
	serial := Config{Runs: 2, Nodes: []int{1, 2, 4}, Seed: 1, Workers: 1}
	pooled := serial
	pooled.Workers = 4

	render := func(t *testing.T, r *Report) string {
		series, err := json.Marshal(r.Series)
		if err != nil {
			t.Fatal(err)
		}
		return r.String() + string(series)
	}
	for _, e := range Experiments(nil) {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			want := render(t, e.Run(serial))
			if got := render(t, e.Run(pooled)); got != want {
				t.Errorf("report diverges from Workers=1:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", want, got)
			}
			if again := render(t, e.Run(pooled)); again != want {
				t.Errorf("repeated pooled run diverges:\n--- workers=1 ---\n%s\n--- again ---\n%s", want, again)
			}
		})
	}
}
