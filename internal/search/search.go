// Package search implements the paper's wider class of "pure search
// problems" on the EARTH runtime: massively parallel, dynamically
// unfolding task trees with dynamic load balancing. The paper's
// introduction names TSP (optimal route), Paraffins (isomer enumeration)
// and Protein Folding (enumerating the polymers of a cube) as
// applications this class covers, citing that they "have already been
// shown to parallelize very well on EARTH-MANNA".
//
// Two generic engines are provided:
//
//   - Count: exhaustive enumeration of a search tree, accumulating leaf
//     values (used by the polymer/self-avoiding-walk and N-queens
//     workloads);
//   - BranchAndBound: minimisation with a globally shared incumbent,
//     maintained on node 0 and replicated to per-node caches, so pruning
//     uses the freshest bound each node has heard of (the shared-data
//     pattern of the paper's Section 3.2, in miniature).
//
// Both spawn the children of tree nodes shallower than spawnDepth as
// TOKENs and expand deeper subtrees inside their task, so trees of
// millions of nodes run with thousands of tasks.
package search

import (
	"earth/internal/earth"
	"earth/internal/sim"
)

// Tree describes an enumerable search tree. Implementations must be
// read-only/shareable: Children may be called from any node.
type Tree[N any] interface {
	// Root returns the root state.
	Root() N
	// Children expands a state; an empty slice makes it a leaf.
	Children(n N) []N
	// LeafValue is accumulated over all leaves.
	LeafValue(n N) int64
}

// spawnDepth is the task grouping of both engines: tree nodes shallower
// than it spawn their children as TOKENs; deeper subtrees run within
// their task.
const spawnDepth = 3

// countNodeCost is the modelled compute time per visited tree node.
const countNodeCost = 5 * sim.Microsecond

// CountResult carries the accumulated value and run statistics.
type CountResult struct {
	Total   int64
	Visited int64
	Stats   *earth.Stats
}

// Count enumerates the tree on rt and returns the sum of leaf values.
func Count[N any](rt earth.Runtime, tree Tree[N]) *CountResult {
	// Per-node accumulators (owner-only access), merged after the run.
	totals := make([]int64, rt.P())
	visited := make([]int64, rt.P())

	var task func(c earth.Ctx, n N, depth int)
	seqCount := func(c earth.Ctx, n N) (int64, int64) {
		// Sequential subtree enumeration with explicit stack.
		var total, nodes int64
		stack := []N{n}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nodes++
			kids := tree.Children(x)
			if len(kids) == 0 {
				total += tree.LeafValue(x)
				continue
			}
			stack = append(stack, kids...)
		}
		return total, nodes
	}
	task = func(c earth.Ctx, n N, depth int) {
		me := c.Node()
		kids := tree.Children(n)
		visited[me]++
		c.Compute(countNodeCost)
		if len(kids) == 0 {
			totals[me] += tree.LeafValue(n)
			return
		}
		if depth >= spawnDepth {
			t, v := seqCount(c, n)
			// The node itself was already counted once above.
			visited[me] += v - 1
			totals[me] += t
			c.Compute(sim.Time(v) * countNodeCost)
			return
		}
		for _, k := range kids {
			k := k
			c.Token(32, func(c earth.Ctx) { task(c, k, depth+1) })
		}
	}

	stats := rt.Run(func(c earth.Ctx) { task(c, tree.Root(), 0) })
	res := &CountResult{Stats: stats}
	for i := range totals {
		res.Total += totals[i]
		res.Visited += visited[i]
	}
	return res
}

// Minimizer describes a branch-and-bound minimisation problem.
type Minimizer[N any] interface {
	// Root returns the root state.
	Root() N
	// Children expands a state.
	Children(n N) []N
	// Bound returns a lower bound on any completion of n; subtrees whose
	// bound is not below the incumbent are pruned.
	Bound(n N) float64
	// Solution reports whether n is a complete solution and its cost.
	Solution(n N) (cost float64, ok bool)
}

// bbNodeCost is the modelled compute time per branch-and-bound expansion.
const bbNodeCost = 20 * sim.Microsecond

// BBResult carries the optimum and statistics.
type BBResult struct {
	Best     float64
	Expanded int64
	// Improvements counts accepted incumbent updates at node 0.
	Improvements int
	Stats        *earth.Stats
}

// BranchAndBound minimises the problem on rt. The incumbent lives on
// node 0; improvements are sent there with a Post, and accepted values are
// re-broadcast to per-node caches (read replication, as the paper's
// Gröbner solution set).
func BranchAndBound[N any](rt earth.Runtime, m Minimizer[N]) *BBResult {
	p := rt.P()
	// incumbents[i] is node i's view of the best cost (owner-only access);
	// incumbents[0] is authoritative. No bound is known at the start.
	incumbents := make([]float64, p)
	for i := range incumbents {
		incumbents[i] = 1e300
	}
	expanded := make([]int64, p)
	improvements := 0

	// report offers an improvement to node 0; if accepted, the new bound
	// is broadcast to every node's cache (8-byte synchronising stores).
	// It is wired through Post so that in the live engine all incumbent
	// mutations happen on their owner's executor. Wait-free reads of the
	// local cache make pruning cheap, at the price of briefly stale bounds
	// — prunes are conservative either way (a stale larger incumbent only
	// prunes less).
	report := func(c earth.Ctx, cost float64) {
		c.Post(0, 8, func(c earth.Ctx) {
			if cost < incumbents[0] {
				incumbents[0] = cost
				improvements++
				for o := 1; o < p; o++ {
					o := o
					c.Post(earth.NodeID(o), 8, func(c earth.Ctx) {
						if cost < incumbents[o] {
							incumbents[o] = cost
						}
					})
				}
			}
		})
	}

	var expand func(c earth.Ctx, n N, depth int)
	expand = func(c earth.Ctx, n N, depth int) {
		me := c.Node()
		expanded[me]++
		c.Compute(bbNodeCost)
		if cost, ok := m.Solution(n); ok {
			if cost < incumbents[me] {
				// Offer it to the authoritative copy; the acceptance
				// broadcast updates every cache, including this node's.
				report(c, cost)
			}
			return
		}
		if m.Bound(n) >= incumbents[me] {
			return // pruned
		}
		for _, k := range m.Children(n) {
			k := k
			if m.Bound(k) >= incumbents[me] {
				continue
			}
			if depth < spawnDepth {
				c.Token(64, func(c earth.Ctx) { expand(c, k, depth+1) })
			} else {
				expand(c, k, depth+1)
			}
		}
	}

	stats := rt.Run(func(c earth.Ctx) { expand(c, m.Root(), 0) })
	res := &BBResult{Best: incumbents[0], Improvements: improvements, Stats: stats}
	for _, e := range expanded {
		res.Expanded += e
	}
	return res
}
