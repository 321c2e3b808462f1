// Neural-network example: train XOR sequentially with backpropagation,
// then run the same network with unit parallelism on a simulated EARTH
// machine and confirm the distributed inference matches.
package main

import (
	"fmt"
	"io"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/neural"
)

func main() { run(os.Stdout) }

// run is the example, printing to w.
func run(w io.Writer) {
	net := neural.New(2, 8, 1, 42)
	xs := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ts := [][]float32{{0}, {1}, {1}, {0}}

	for epoch := 0; epoch < 4000; epoch++ {
		for i := range xs {
			net.TrainSample(xs[i], ts[i], 0.9)
		}
	}
	fmt.Fprintln(w, "sequential training of XOR:")
	for i := range xs {
		_, y := net.Forward(xs[i])
		fmt.Fprintf(w, "  XOR(%v,%v) = %.3f (target %v)\n", xs[i][0], xs[i][1], y[0], ts[i][0])
	}

	// Unit-parallel inference on 4 nodes: identical outputs, bit for bit.
	rt := simrt.New(earth.Config{Nodes: 4, Seed: 1})
	res := neural.ParallelRun(rt, net.Clone(), xs, nil, neural.ParallelConfig{Tree: true})
	fmt.Fprintln(w, "unit-parallel inference on 4 simulated nodes:")
	exact := true
	for i := range xs {
		_, want := net.Forward(xs[i])
		if res.Outputs[i][0] != want[0] {
			exact = false
		}
		fmt.Fprintf(w, "  XOR(%v,%v) = %.3f\n", xs[i][0], xs[i][1], res.Outputs[i][0])
	}
	fmt.Fprintf(w, "bitwise identical to sequential: %v\n", exact)
	fmt.Fprintln(w, res.Stats)
}
