package groebner

import (
	"fmt"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/sim"
)

// BenchmarkParallelBuchberger runs the completion of each paper input on
// simrt, with the step costs calibrated as the harness calibrates them: the
// loop a Figure 4 or 5 cell spends its host time in. Two shapes run under
// EARTH costs at a small and a mid-size machine, as Figure 4's cells do;
// the third is Figure 5's heaviest, 20 nodes on the coalesced wire path
// under MP-1000µs costs, where a worker receives more broadcasts than it
// reduces pairs, so a divisor table rebuilt on every basis change rather
// than at the first reduction after it would show there.
func BenchmarkParallelBuchberger(b *testing.B) {
	shapes := []struct {
		name  string
		nodes int
		costs earth.CostModel
		coal  earth.CoalesceConfig
	}{
		{"nodes=4", 4, earth.EARTHCosts(), earth.CoalesceConfig{}},
		{"nodes=12", 12, earth.EARTHCosts(), earth.CoalesceConfig{}},
		{"nodes=20/coalesced/MP-1000us", 20, earth.MessagePassingCosts(1000 * sim.Microsecond), earth.CoalesceConfig{Enabled: true}},
	}
	for _, in := range PaperInputs() {
		seq, err := Buchberger(in.F, in.Opt)
		if err != nil {
			b.Fatal(err)
		}
		sc := Calibrate(seq.Trace, in.PaperSeqMS)
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%s", in.Name, sh.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rt := simrt.New(earth.Config{Nodes: sh.nodes, Seed: 1, Costs: sh.costs, JitterPct: 2, Coalesce: sh.coal})
					if _, err := ParallelBuchberger(rt, in.F, ParallelConfig{Opt: in.Opt, StepCost: sc}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
