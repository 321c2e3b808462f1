// Command nnsim trains a feed-forward network sequentially and reports the
// final epoch's loss, then times the unit-parallel version of the same
// training on the simulated EARTH machine, on one node and on -nodes.
//
// Usage:
//
//	nnsim [-units 80] [-samples 16] [-epochs 10] [-nodes 16] [-tree=false] [-seed 1]
//
// -units, -samples and -nodes must be at least 1 and -epochs at least 0;
// anything else is rejected with one "nnsim: …" line and exit status 2
// before a network or a machine is built.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/neural"
	"earth/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nnsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	units := fs.Int("units", 80, "units per layer")
	samples := fs.Int("samples", 16, "training samples")
	epochs := fs.Int("epochs", 10, "sequential training epochs")
	nodes := fs.Int("nodes", 16, "simulated machine size")
	tree := fs.Bool("tree", true, "tree-organised communication")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return 2 // the FlagSet has printed the error and the usage
	}
	for _, f := range []struct {
		name     string
		got, min int
	}{{"-units", *units, 1}, {"-samples", *samples, 1}, {"-epochs", *epochs, 0}, {"-nodes", *nodes, 1}} {
		if f.got < f.min {
			fmt.Fprintf(stderr, "nnsim: %s must be at least %d, got %d\n", f.name, f.min, f.got)
			return 2
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	xs := make([][]float32, *samples)
	ts := make([][]float32, *samples)
	for s := range xs {
		xs[s] = make([]float32, *units)
		ts[s] = make([]float32, *units)
		for i := range xs[s] {
			xs[s][i] = float32(rng.Float64())
			ts[s][i] = xs[s][(i+1)%*units]
		}
	}

	// The three runs start from the same weights: one network, cloned.
	initial := neural.Square(*units, *seed)

	// Sequential training.
	net := initial.Clone()
	var last float64
	for e := 0; e < *epochs; e++ {
		last = 0
		for s := range xs {
			last += net.TrainSample(xs[s], ts[s], 0.3)
		}
	}
	fmt.Fprintf(stdout, "sequential training: %d epochs, final epoch loss %.4f\n", *epochs, last)

	// Unit-parallel timing on the simulated machine.
	perSample := func(nodes int) sim.Time {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: *seed})
		res := neural.ParallelRun(rt, initial.Clone(), xs, ts,
			neural.ParallelConfig{Train: true, Tree: *tree, LR: 0.3})
		return res.Stats.Elapsed / sim.Time(len(xs))
	}
	per1, perN := perSample(1), perSample(*nodes)
	fmt.Fprintf(stdout, "unit parallelism: %v/sample on 1 node, %v/sample on %d nodes (speedup %.1f)\n",
		per1, perN, *nodes, float64(per1)/float64(perN))
	return 0
}
