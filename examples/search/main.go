// Search example: the other search applications the paper cites as
// parallelising "very well on EARTH-MANNA" — an exact travelling-salesman
// branch-and-bound with a globally shared incumbent, and polymer
// (self-avoiding-walk) enumeration — running on the simulated machine.
package main

import (
	"fmt"
	"io"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/search"
)

func main() { run(os.Stdout) }

// run is the example, printing to w.
func run(w io.Writer) {
	// Exact TSP on 11 random cities.
	tsp := search.RandomTSP(11, 42)
	one := simrt.New(earth.Config{Nodes: 1, Seed: 1})
	r1 := search.BranchAndBound(one, tsp)
	sixteen := simrt.New(earth.Config{Nodes: 16, Seed: 1})
	r16 := search.BranchAndBound(sixteen, tsp)
	fmt.Fprintf(w, "TSP(11): optimal tour %.4f, %d node expansions, %d incumbent updates\n",
		r16.Best, r16.Expanded, r16.Improvements)
	fmt.Fprintf(w, "  1 node: %v   16 nodes: %v   speedup %.1f\n",
		r1.Stats.Elapsed, r16.Stats.Elapsed,
		float64(r1.Stats.Elapsed)/float64(r16.Stats.Elapsed))

	// Polymer enumeration: count self-avoiding walks of length 7 on the
	// cubic lattice (the lattice model of "finding all possible polymers").
	poly := &search.Polymer{Steps: 7}
	p1 := simrt.New(earth.Config{Nodes: 1, Seed: 1})
	c1 := search.Count(p1, poly)
	p16 := simrt.New(earth.Config{Nodes: 16, Seed: 1})
	c16 := search.Count(p16, poly)
	fmt.Fprintf(w, "polymers of length 7: %d (visited %d walk prefixes)\n", c16.Total, c16.Visited)
	fmt.Fprintf(w, "  1 node: %v   16 nodes: %v   speedup %.1f\n",
		c1.Stats.Elapsed, c16.Stats.Elapsed,
		float64(c1.Stats.Elapsed)/float64(c16.Stats.Elapsed))
	if c1.Total != c16.Total {
		panic("machine size changed the count")
	}
}
