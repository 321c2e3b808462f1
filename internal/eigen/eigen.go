// Package eigen implements the paper's Eigenvalue search application: the
// ScaLAPACK-style bisection algorithm for symmetric tridiagonal matrices.
// Gershgorin bounds give an initial interval containing all eigenvalues;
// a Sturm-sequence count determines how many eigenvalues lie below any
// point; bisection recursively subdivides the real line until every
// interval containing eigenvalues is smaller than the tolerance. The
// recursion forms a dynamically unfolding, irregularly shaped search tree
// — the paper's exemplar of a massively parallel search problem requiring
// dynamic load balancing.
package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// SymTridiag is a symmetric tridiagonal matrix: diagonal D (length n) and
// off-diagonal E (length n, E[0] unused).
type SymTridiag struct {
	D, E []float64
	// counts holds CountBelow's answers at the points one sequential
	// bisection visited, keyed by math.Float64bits of the point (see
	// Tabulate). It is nil on a plain matrix and never written once
	// Tabulate returns, so concurrent readers need no lock.
	counts map[uint64]int
}

// N returns the dimension.
func (t *SymTridiag) N() int { return len(t.D) }

// Validate reports malformed matrices.
func (t *SymTridiag) Validate() error {
	if len(t.D) == 0 {
		return fmt.Errorf("eigen: empty matrix")
	}
	if len(t.E) != len(t.D) {
		return fmt.Errorf("eigen: len(E)=%d, want len(D)=%d", len(t.E), len(t.D))
	}
	return nil
}

// Toeplitz returns the n-dimensional matrix with constant diagonal a and
// off-diagonal b. Its eigenvalues are known in closed form:
// a + 2b*cos(k*pi/(n+1)), k = 1..n — the package's exact test oracle.
func Toeplitz(n int, a, b float64) *SymTridiag {
	t := &SymTridiag{D: make([]float64, n), E: make([]float64, n)}
	for i := range t.D {
		t.D[i] = a
		t.E[i] = b
	}
	t.E[0] = 0
	return t
}

// ToeplitzEigenvalues returns the sorted exact spectrum of Toeplitz(n,a,b).
//
//unref:allow test oracle: the closed-form spectrum the bisection tests compare against
func ToeplitzEigenvalues(n int, a, b float64) []float64 {
	ev := make([]float64, n)
	for k := 1; k <= n; k++ {
		ev[k-1] = a + 2*b*math.Cos(float64(k)*math.Pi/float64(n+1))
	}
	sort.Float64s(ev)
	return ev
}

// Wilkinson returns the Wilkinson-type matrix W_n^+: diagonal
// |i - (n-1)/2| with unit off-diagonals. Its upper eigenvalues come in
// extremely close pairs — the classical clustered-spectrum example.
func Wilkinson(n int) *SymTridiag {
	t := &SymTridiag{D: make([]float64, n), E: make([]float64, n)}
	m := float64(n-1) / 2
	for i := range t.D {
		t.D[i] = math.Abs(float64(i) - m)
		t.E[i] = 1
	}
	t.E[0] = 0
	return t
}

// Clustered returns a matrix whose spectrum mixes isolated eigenvalues
// with tight clusters: shifted Wilkinson blocks glued by very weak
// couplings. Within each block the upper eigenvalues come in pairs that
// agree to ~1e-10 (tighter than any practical bisection tolerance), while
// the per-block shift separates the blocks — the profile the paper
// describes ("eigenvalues are not equally spread but clustered, the tree
// is irregular"). seed perturbs the shifts so different seeds give
// different (still clustered) spectra.
func Clustered(n int, blockSize int, seed int64) *SymTridiag {
	rng := rand.New(rand.NewSource(seed))
	t := &SymTridiag{D: make([]float64, n), E: make([]float64, n)}
	m := float64(blockSize-1) / 2
	shift := 0.0
	for i := range t.D {
		pos := i % blockSize
		if pos == 0 {
			shift = float64(i/blockSize)*0.5 + 0.1*rng.Float64()
			t.E[i] = 1e-7 // weak glue between blocks
		} else {
			t.E[i] = 1
		}
		t.D[i] = math.Abs(float64(pos)-m) + shift
	}
	t.E[0] = 0
	return t
}

// ClusterDiag returns a matrix whose spectrum consists of `clusters`
// tight clusters of n/clusters eigenvalues each, spread over [0, span]:
// per-cluster constant diagonals with tiny perturbations and negligible
// couplings. This reconstructs the Table 1 workload: with 1000 units in
// ~48 clusters, bisection creates ~935 search nodes whose leaf depths
// range from 1 to 22 — the tree consists of a small splitting crown that
// separates the clusters and long refinement chains below it.
func ClusterDiag(n, clusters int, span float64, seed int64) *SymTridiag {
	if clusters < 1 || clusters > n {
		panic("eigen: bad cluster count")
	}
	rng := rand.New(rand.NewSource(seed))
	shifts := make([]float64, clusters)
	for i := range shifts {
		shifts[i] = span * rng.Float64()
	}
	per := (n + clusters - 1) / clusters
	t := &SymTridiag{D: make([]float64, n), E: make([]float64, n)}
	for i := range t.D {
		t.D[i] = shifts[i/per] + 1e-9*rng.Float64()
		t.E[i] = 1e-9
	}
	t.E[0] = 0
	return t
}

// Gershgorin returns an interval [lo, hi] containing all eigenvalues.
func (t *SymTridiag) Gershgorin() (lo, hi float64) {
	n := t.N()
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(t.E[i])
		}
		if i+1 < n {
			r += math.Abs(t.E[i+1])
		}
		if t.D[i]-r < lo {
			lo = t.D[i] - r
		}
		if t.D[i]+r > hi {
			hi = t.D[i] + r
		}
	}
	return lo, hi
}

// CountBelow returns the number of eigenvalues strictly less than x,
// using the Sturm sequence of leading principal minors (one O(n) pass,
// the unit of computation the paper's Table 1 prices at 7.82 ms for
// n = 1000 on the i860). A matrix from Tabulate answers the points its
// bisection visited from its table, and computes any other point.
func (t *SymTridiag) CountBelow(x float64) int {
	if n, ok := t.counts[math.Float64bits(x)]; ok {
		return n
	}
	return t.sturm(x)
}

// sturm is CountBelow's O(n) pass.
func (t *SymTridiag) sturm(x float64) int {
	const tiny = 1e-300
	count := 0
	q := t.D[0] - x
	if q < 0 {
		count++
	}
	for i := 1; i < t.N(); i++ {
		if q == 0 {
			q = tiny
		}
		q = t.D[i] - x - t.E[i]*t.E[i]/q
		if q < 0 {
			count++
		}
	}
	return count
}

// Interval is one bisection search node: [Lo, Hi) known to contain
// NHi - NLo eigenvalues (N* are CountBelow values at the bounds).
type Interval struct {
	Lo, Hi   float64
	NLo, NHi int
	Depth    int
}

// Count returns the number of eigenvalues in the interval.
func (iv Interval) Count() int { return iv.NHi - iv.NLo }

// Result is the outcome of a bisection run.
type Result struct {
	// Eigenvalues, ascending; a cluster narrower than the tolerance
	// appears as repeated midpoints.
	Eigenvalues []float64
	// Tasks is the number of search nodes created (Table 1's "number of
	// tasks").
	Tasks int
	// SturmCounts is the number of Sturm evaluations performed — the
	// compute-model unit.
	SturmCounts int
	// MinDepth/MaxDepth bound the leaf depths (Table 1's "depth of
	// leafs").
	MinDepth, MaxDepth int
	// DepthHist counts leaves per depth.
	DepthHist map[int]int
}

// newResult returns an empty Result, ready for emitLeaf.
func newResult() *Result {
	return &Result{MinDepth: math.MaxInt, DepthHist: map[int]int{}}
}

// rootInterval returns the search tree's root: t's Gershgorin interval,
// widened marginally so no eigenvalue sits on a bound, with the counts at
// its two ends.
func rootInterval(t *SymTridiag, count func(float64) int) Interval {
	lo, hi := t.Gershgorin()
	lo -= 1e-9 * (1 + math.Abs(lo))
	hi += 1e-9 * (1 + math.Abs(hi))
	return Interval{Lo: lo, Hi: hi, NLo: count(lo), NHi: count(hi)}
}

// Bisect computes all eigenvalues of t to absolute tolerance tol,
// sequentially. It panics on invalid input (programming error).
func Bisect(t *SymTridiag, tol float64) *Result {
	return bisect(t, tol, t.CountBelow)
}

// Tabulate runs Bisect(t, tol) and records every count it takes. It
// returns that Result and a matrix that shares t's D and E and answers
// those counts from a table, so a parallel run of the same search tree
// (ParallelBisect at the same tol) reads its counts instead of redoing
// them. The task tree is a pure function of the matrix: the simulated
// runs still charge every count through Ctx.Compute, the host computes
// each once.
func Tabulate(t *SymTridiag, tol float64) (*SymTridiag, *Result) {
	counts := map[uint64]int{}
	res := bisect(t, tol, func(x float64) int {
		n := t.CountBelow(x)
		counts[math.Float64bits(x)] = n
		return n
	})
	return &SymTridiag{D: t.D, E: t.E, counts: counts}, res
}

// bisect is Bisect with the Sturm counts taken through count.
func bisect(t *SymTridiag, tol float64, count func(float64) int) *Result {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	if tol <= 0 {
		panic("eigen: tolerance must be positive")
	}
	res := newResult()
	stack := []Interval{rootInterval(t, count)}
	res.SturmCounts += 2
	for len(stack) > 0 {
		iv := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Tasks++
		leaf, kids, n := step(count, iv, tol, res)
		if leaf {
			res.emitLeaf(iv)
			continue
		}
		stack = append(stack, kids[:n]...)
	}
	sort.Float64s(res.Eigenvalues)
	return res
}

// step processes one search node: it either resolves the interval as a
// leaf (leaf true: iv is the leaf) or splits it at the midpoint, returning
// the n children that still contain eigenvalues, lower first, in
// kids[:n] — by value, so a step allocates nothing. It records Sturm
// counts in res (which may be shared only in sequential use; parallel
// callers pass a private Result per task and merge). This is the task
// body both the sequential driver and the EARTH version execute.
func step(count func(float64) int, iv Interval, tol float64, res *Result) (leaf bool, kids [2]Interval, n int) {
	if iv.Count() <= 0 {
		// Empty intervals are pruned before being spawned; reaching here
		// means the root contained nothing.
		return true, kids, 0
	}
	if iv.Hi-iv.Lo < tol {
		return true, kids, 0
	}
	mid := 0.5 * (iv.Lo + iv.Hi)
	nmid := count(mid)
	res.SturmCounts++
	if nmid-iv.NLo > 0 {
		kids[n] = Interval{Lo: iv.Lo, Hi: mid, NLo: iv.NLo, NHi: nmid, Depth: iv.Depth + 1}
		n++
	}
	if iv.NHi-nmid > 0 {
		kids[n] = Interval{Lo: mid, Hi: iv.Hi, NLo: nmid, NHi: iv.NHi, Depth: iv.Depth + 1}
		n++
	}
	return false, kids, n
}

// emitLeaf records a resolved interval's eigenvalues and depth stats.
func (r *Result) emitLeaf(iv Interval) {
	mid := 0.5 * (iv.Lo + iv.Hi)
	for k := 0; k < iv.Count(); k++ {
		r.Eigenvalues = append(r.Eigenvalues, mid)
	}
	if iv.Count() <= 0 {
		return
	}
	if iv.Depth < r.MinDepth {
		r.MinDepth = iv.Depth
	}
	if iv.Depth > r.MaxDepth {
		r.MaxDepth = iv.Depth
	}
	r.DepthHist[iv.Depth]++
}
