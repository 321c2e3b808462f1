// Communication-cost sweep: the paper's Figure 5 methodology in miniature.
// The identical Gröbner program runs under the EARTH overhead model and
// under the three inflated message-passing models (300/500/1000 us); the
// low-overhead runtime keeps scaling where message passing flattens.
package main

import (
	"fmt"
	"io"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/groebner"
	"earth/internal/sim"
)

func main() { run(os.Stdout) }

// run is the example, printing to w.
func run(w io.Writer) {
	in := groebner.InputByName("Lazard")
	seq, err := groebner.Buchberger(in.F, in.Opt)
	if err != nil {
		panic(err)
	}
	sc := groebner.Calibrate(seq.Trace, in.PaperSeqMS)
	base := groebner.SeqVirtualTime(seq.Trace, sc)
	fmt.Fprintf(w, "Lazard, modelled sequential time: %v\n\n", base)

	models := append([]earth.CostModel{earth.EARTHCosts()}, earth.PaperMPModels()...)
	fmt.Fprintf(w, "%-10s", "nodes")
	for _, m := range models {
		fmt.Fprintf(w, "  %10s", m.Name)
	}
	fmt.Fprintln(w)
	for _, nodes := range []int{4, 8, 12, 16} {
		fmt.Fprintf(w, "%-10d", nodes)
		for _, m := range models {
			rt := simrt.New(earth.Config{Nodes: nodes, Seed: 3, Costs: m, JitterPct: 2})
			res, err := groebner.ParallelBuchberger(rt, in.F,
				groebner.ParallelConfig{Opt: in.Opt, StepCost: sc})
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "  %10.2f", float64(base)/float64(res.Stats.Elapsed))
		}
		fmt.Fprintln(w)
	}
	_ = sim.Time(0)
}
