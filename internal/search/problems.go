package search

import (
	"math"
	"math/rand"
)

// ---------------------------------------------------------------------------
// TSP — "computing the optimal route for a traveling salesman through a
// certain number of cities" (paper Section 3.1). Exact branch-and-bound
// over partial tours with a cheapest-outgoing-edge lower bound.
// ---------------------------------------------------------------------------

// TSP is a symmetric travelling-salesman instance on a full distance
// matrix.
type TSP struct {
	Dist [][]float64
	// minOut[i] is the cheapest edge leaving city i (the bound's unit).
	minOut []float64
}

// NewTSP builds an instance from a distance matrix. The matrix must be
// square with zero diagonal.
func NewTSP(dist [][]float64) *TSP {
	n := len(dist)
	t := &TSP{Dist: dist, minOut: make([]float64, n)}
	for i := 0; i < n; i++ {
		if len(dist[i]) != n {
			panic("search: distance matrix not square")
		}
		m := math.Inf(1)
		for j := 0; j < n; j++ {
			if j != i && dist[i][j] < m {
				m = dist[i][j]
			}
		}
		t.minOut[i] = m
	}
	return t
}

// RandomTSP places n cities uniformly in the unit square.
func RandomTSP(n int, seed int64) *TSP {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		}
	}
	return NewTSP(d)
}

// N returns the city count.
func (t *TSP) N() int { return len(t.Dist) }

// TSPNode is a partial tour starting at city 0.
type TSPNode struct {
	last    int // the city the tour stands in
	n       int // cities visited, the start included
	visited uint64
	cost    float64
}

// Root implements Minimizer.
func (t *TSP) Root() TSPNode {
	return TSPNode{last: 0, n: 1, visited: 1}
}

// Children extends the tour by each unvisited city, nearest first (good
// orderings improve pruning).
func (t *TSP) Children(n TSPNode) []TSPNode {
	if n.n == t.N() {
		return nil
	}
	var kids []TSPNode
	for j := 0; j < t.N(); j++ {
		if n.visited&(1<<uint(j)) != 0 {
			continue
		}
		kids = append(kids, TSPNode{
			last:    j,
			n:       n.n + 1,
			visited: n.visited | 1<<uint(j),
			cost:    n.cost + t.Dist[n.last][j],
		})
	}
	for i := 1; i < len(kids); i++ {
		for k := i; k > 0 && kids[k].cost < kids[k-1].cost; k-- {
			kids[k], kids[k-1] = kids[k-1], kids[k]
		}
	}
	return kids
}

// Bound implements Minimizer: tour cost so far plus the cheapest outgoing
// edge of every city that must still be departed from.
func (t *TSP) Bound(n TSPNode) float64 {
	b := n.cost + t.minOut[n.last]
	for j := 0; j < t.N(); j++ {
		if n.visited&(1<<uint(j)) == 0 {
			b += t.minOut[j]
		}
	}
	if n.n == t.N() {
		return n.cost + t.Dist[n.last][0]
	}
	return b
}

// Solution implements Minimizer: a complete tour closes back to city 0.
func (t *TSP) Solution(n TSPNode) (float64, bool) {
	if n.n < t.N() {
		return 0, false
	}
	return n.cost + t.Dist[n.last][0], true
}

// BruteForce returns the exact optimum by full enumeration (test oracle,
// n <= 10).
//
//unref:allow test oracle: the exact optimum branch-and-bound is checked against
func (t *TSP) BruteForce() float64 {
	n := t.N()
	perm := make([]int, 0, n)
	perm = append(perm, 0)
	used := make([]bool, n)
	used[0] = true
	best := math.Inf(1)
	var rec func(cost float64)
	rec = func(cost float64) {
		if len(perm) == n {
			total := cost + t.Dist[perm[n-1]][0]
			if total < best {
				best = total
			}
			return
		}
		for j := 1; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			perm = append(perm, j)
			rec(cost + t.Dist[perm[len(perm)-2]][j])
			perm = perm[:len(perm)-1]
			used[j] = false
		}
	}
	rec(0)
	return best
}

// ---------------------------------------------------------------------------
// Polymer enumeration — the paper's Protein Folding workload "finding all
// possible polymers", modelled as counting self-avoiding walks on the
// cubic lattice (the standard lattice-polymer model).
// ---------------------------------------------------------------------------

// Polymer counts self-avoiding walks of length Steps on the 3D cubic
// lattice starting at the origin.
type Polymer struct {
	Steps int
}

// PolymerNode is a partial walk.
type PolymerNode struct {
	path []point3
}

type point3 struct{ x, y, z int8 }

var dirs3 = []point3{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

// Root implements Tree.
func (p *Polymer) Root() PolymerNode {
	return PolymerNode{path: []point3{{0, 0, 0}}}
}

// Children implements Tree: extend the walk to any unvisited neighbour.
func (p *Polymer) Children(n PolymerNode) []PolymerNode {
	if len(n.path) > p.Steps {
		return nil
	}
	head := n.path[len(n.path)-1]
	var kids []PolymerNode
	for _, d := range dirs3 {
		next := point3{head.x + d.x, head.y + d.y, head.z + d.z}
		if n.contains(next) {
			continue
		}
		kids = append(kids, PolymerNode{path: append(append([]point3(nil), n.path...), next)})
	}
	return kids
}

func (n PolymerNode) contains(q point3) bool {
	for _, p := range n.path {
		if p == q {
			return true
		}
	}
	return false
}

// LeafValue implements Tree: a completed walk counts once; dead ends
// shorter than Steps count zero.
func (p *Polymer) LeafValue(n PolymerNode) int64 {
	if len(n.path) == p.Steps+1 {
		return 1
	}
	return 0
}

// KnownSAW3D holds the published counts of 3D cubic-lattice self-avoiding
// walks, c_1..c_6 (test oracle).
//
//unref:allow test oracle: published walk counts the polymer search must reproduce
var KnownSAW3D = []int64{6, 30, 150, 726, 3534, 16926}

// ---------------------------------------------------------------------------
// N-queens — a classic enumeration workload for the Count engine.
// ---------------------------------------------------------------------------

// Queens counts the solutions of the n-queens problem.
type Queens struct {
	N int
}

// QueensNode is a partial placement (bitmasks per row).
type QueensNode struct {
	row                int
	cols, diag1, diag2 uint32
}

// Root implements Tree.
func (q *Queens) Root() QueensNode { return QueensNode{} }

// Children implements Tree.
func (q *Queens) Children(n QueensNode) []QueensNode {
	if n.row == q.N {
		return nil
	}
	avail := ^(n.cols | n.diag1 | n.diag2) & (1<<uint(q.N) - 1)
	var kids []QueensNode
	for avail != 0 {
		bit := avail & (-avail)
		avail &^= bit
		kids = append(kids, QueensNode{
			row:   n.row + 1,
			cols:  n.cols | bit,
			diag1: (n.diag1 | bit) << 1,
			diag2: (n.diag2 | bit) >> 1,
		})
	}
	return kids
}

// LeafValue implements Tree: leaves with all rows filled are solutions;
// leaves cut short (no legal square) count zero.
func (q *Queens) LeafValue(n QueensNode) int64 {
	if n.row == q.N {
		return 1
	}
	return 0
}
