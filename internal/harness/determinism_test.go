package harness

import (
	"encoding/json"
	"testing"

	"earth/internal/pin"
)

// TestParallelSweepDeterminism is the safety net for the host-parallel
// sweeps: for every row of the experiment table, the Report text and the
// Series JSON produced with a multi-worker pool must be byte-identical to
// the Workers=1 rendering. Run under -race this also checks the cells
// really are independent. The renderings themselves are pinned where the
// user sees them, by cmd/paperfigs' TestExperimentsPinned.
func TestParallelSweepDeterminism(t *testing.T) {
	serial := Config{Runs: 2, Nodes: []int{1, 2, 4}, Seed: 1, Workers: 1}
	pooled := serial
	pooled.Workers = 4

	render := func(t *testing.T, r *Report) []byte {
		series, err := json.Marshal(r.Series)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(r.String()), series...)
	}
	for _, e := range Experiments(nil) {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			if d := pin.FirstDiff(render(t, e.Run(serial)), render(t, e.Run(pooled))); d != "" {
				t.Errorf("Workers=4 diverges from Workers=1 at %s", d)
			}
		})
	}
}
