package groebner

import (
	"fmt"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
)

// BenchmarkParallelBuchberger runs the completion of each paper input on
// simrt under EARTH costs at a small and a mid-size machine, with the step
// costs calibrated as the harness calibrates them: the loop a Figure 4 cell
// spends its host time in.
func BenchmarkParallelBuchberger(b *testing.B) {
	for _, in := range PaperInputs() {
		seq, err := Buchberger(in.F, in.Opt)
		if err != nil {
			b.Fatal(err)
		}
		sc := Calibrate(seq.Trace, in.PaperSeqMS)
		for _, nodes := range []int{4, 12} {
			b.Run(fmt.Sprintf("%s/nodes=%d", in.Name, nodes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rt := simrt.New(earth.Config{Nodes: nodes, Seed: 1, Costs: earth.EARTHCosts(), JitterPct: 2})
					if _, err := ParallelBuchberger(rt, in.F, ParallelConfig{Opt: in.Opt, StepCost: sc}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
