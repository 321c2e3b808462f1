// Eigenvalue example: compute the full spectrum of a clustered symmetric
// tridiagonal matrix with the paper's bisection search, sequentially and
// on a simulated 16-node EARTH machine, and verify they agree.
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/sim"
)

func main() { run(os.Stdout) }

// run is the example, printing to w.
func run(w io.Writer) {
	m := eigen.Wilkinson(201) // strongly clustered upper spectrum
	tol := 1e-8

	seq := eigen.Bisect(m, tol)
	fmt.Fprintf(w, "sequential: %d eigenvalues, %d search nodes, %d Sturm evaluations\n",
		len(seq.Eigenvalues), seq.Tasks, seq.SturmCounts)
	fmt.Fprintf(w, "largest eigenvalues: %.9f, %.9f (a Wilkinson near-degenerate pair)\n",
		seq.Eigenvalues[len(seq.Eigenvalues)-2], seq.Eigenvalues[len(seq.Eigenvalues)-1])

	rt := simrt.New(earth.Config{Nodes: 16, Seed: 1})
	par := eigen.ParallelBisect(rt, m, eigen.ParallelConfig{Tol: tol})
	worst := 0.0
	for i := range seq.Eigenvalues {
		if d := math.Abs(seq.Eigenvalues[i] - par.Eigenvalues[i]); d > worst {
			worst = d
		}
	}
	base := eigen.SeqVirtualTime(seq, eigen.SturmCostFor(m.N()))
	fmt.Fprintf(w, "parallel (16 nodes): %v vs %v modelled sequential -> speedup %.1f\n",
		par.Stats.Elapsed, base, float64(base)/float64(par.Stats.Elapsed))
	fmt.Fprintf(w, "max divergence from sequential result: %g\n", worst)
	fmt.Fprintf(w, "work stealing moved %d of %d tasks\n", par.Stats.Total().TokensStolen, par.Tasks)
	_ = sim.Time(0)
}
