package harness

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Grid holds one result per cell of a multi-axis sweep, addressed by
// coordinates. Cells are stored row-major (the last axis varies
// fastest); the pool hands them out last-first.
type Grid[T any] struct {
	dims  []int
	cells []T
}

// Sweep evaluates cell at every coordinate of the dims[0] × dims[1] × …
// grid on up to workers goroutines (<= 0: GOMAXPROCS) and returns the
// results. Every experiment states its axes and what one cell runs;
// the flat layout, the pool and the coordinate arithmetic live here.
// Cells must be independent — each builds its own runtime — and callers
// fold the Grid serially afterwards, so a sweep is byte-identical for
// every worker count.
func Sweep[T any](workers int, dims []int, cell func(at []int) T) *Grid[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	g := &Grid[T]{dims: slices.Clone(dims), cells: make([]T, n)}
	forEachCell(workers, n, func(i int) { g.cells[i] = cell(g.coords(i)) })
	return g
}

// coords recovers the coordinates of flat cell i.
func (g *Grid[T]) coords(i int) []int {
	at := make([]int, len(g.dims))
	for a := len(g.dims) - 1; a >= 0; a-- {
		at[a] = i % g.dims[a]
		i /= g.dims[a]
	}
	return at
}

// index is the flat position of the first cell under the coordinate
// prefix at, and the number of cells that prefix spans.
func (g *Grid[T]) index(at []int) (first, span int) {
	if len(at) > len(g.dims) {
		panic("harness: more coordinates than grid axes")
	}
	span = len(g.cells)
	for a, x := range at {
		if x < 0 || x >= g.dims[a] {
			panic("harness: grid coordinate out of range")
		}
		span /= g.dims[a]
		first += x * span
	}
	return first, span
}

// At returns the cell at the given coordinates, one per axis.
func (g *Grid[T]) At(at ...int) T {
	if len(at) != len(g.dims) {
		panic("harness: At needs one coordinate per grid axis")
	}
	first, _ := g.index(at)
	return g.cells[first]
}

// Sub fixes the leading coordinates and returns the remaining axes as a
// Grid sharing the same cells.
func (g *Grid[T]) Sub(at ...int) *Grid[T] {
	first, span := g.index(at)
	return &Grid[T]{dims: g.dims[len(at):], cells: g.cells[first : first+span]}
}

// All returns every cell in row-major order.
func (g *Grid[T]) All() []T { return g.cells }

// forEachCell is the pool under Sweep: it evaluates job(0..n-1) on up to
// workers goroutines, returning when every cell is done. It hands the
// cells out from n-1 down: every sweep lists its heaviest variants last
// (720 units, Katsura-5), so the longest cells start first and the short
// ones fill in behind them, which comes close to longest-first. Each cell
// writes only its own index-addressed slot and completion order is
// arbitrary, so results are folded serially afterwards; that two-phase
// shape is what makes a parallel sweep byte-identical to Workers=1. With
// workers <= 1 (or a single cell) everything runs inline on the caller's
// goroutine. A cell panic is re-raised on the caller once the pool
// drains.
func forEachCell(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panics = make(chan any, 1)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// This is the sanctioned host-side pool, not simulated-machine
		// scheduling: cells write index-addressed slots and the caller
		// aggregates serially, so the goroutines cannot reach any output
		// ordering (pinned by TestParallelSweepDeterminism under -race).
		//detlint:allow host-side worker pool with deterministic index-addressed merge
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					select {
					case panics <- p:
					default: // keep the first panic only
					}
				}
			}()
			for {
				i := n - int(next.Add(1))
				if i < 0 {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// nodesMin returns the node counts of the sweep that are >= lo, in
// order. Sweeps that need a minimum machine size (the Gröbner harness
// reserves one node for maintenance) filter through this before laying
// out their cell grids.
func nodesMin(nodes []int, lo int) []int {
	return slices.DeleteFunc(slices.Clone(nodes), func(n int) bool { return n < lo })
}
