// Quickstart: the paper's Figure 1(b) "vadd" example in Threaded-Go.
//
// A threaded function fetches the i-th elements of two remote vectors
// with split-phase GET_SYNCs, adds them when both have arrived (a sync
// slot fires the continuation thread), writes the result back with
// DATA_SYNC, and signals completion through a remote sync — exactly the
// EARTH Threaded-C idiom, expressed with earth.Frame and earth.Ctx.
package main

import (
	"fmt"
	"io"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
)

func main() { run(os.Stdout) }

// run is the example, printing to w.
func run(w io.Writer) {
	const n = 8
	// Vectors live on node 1 ("remote memory"); the computation runs on
	// node 0 and writes results back to node 1.
	a := make([]float64, n)
	b := make([]float64, n)
	res := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(10 * i)
	}

	rt := simrt.New(earth.Config{Nodes: 2, Seed: 1})
	stats := rt.Run(func(c earth.Ctx) {
		// done: the caller-side counter RSYNC decrements at the end.
		done := earth.NewFrame(0, 1, 1)
		done.InitSync(0, 1, 0, 0)
		done.SetThread(0, func(c earth.Ctx) {
			fmt.Fprintln(w, "vadd finished:", res)
		})
		vadd(c, a, b, res, done)
	})
	fmt.Fprintln(w, stats)
}

// vadd is the THREADED function of Figure 1(b): per element, two
// split-phase loads synchronise a per-element add thread; the add writes
// its result back with DATA_SYNC, and when every element's store has
// completed a final thread RSYNCs the caller's counter.
func vadd(c earth.Ctx, a, b, res []float64, done *earth.Frame) {
	n := len(a)
	type operands struct{ av, bv float64 }
	elems := make([]operands, n)

	// f: slot 0 counts the n result stores and enables the END thread.
	f := earth.NewFrame(c.Node(), 1, 1)
	f.InitSync(0, n, 0, 0)
	f.SetThread(0, func(c earth.Ctx) {
		earth.Rsync(c, done, 0) // RSYNC(done): the function is finished
	})

	for j := 0; j < n; j++ {
		j := j
		// Per-element frame: two operand arrivals enable the add thread.
		ef := earth.NewFrame(c.Node(), 1, 1)
		ef.InitSync(0, 2, 0, 0)
		ef.SetThread(0, func(c earth.Ctx) {
			sum := elems[j].av + elems[j].bv
			earth.DataSyncF64(c, 1, sum, &res[j], f, 0)
		})
		earth.GetSyncF64(c, 1, &a[j], &elems[j].av, ef, 0)
		earth.GetSyncF64(c, 1, &b[j], &elems[j].bv, ef, 0)
	}
}
