package groebner

import (
	"fmt"
	"math"
	"math/big"

	"earth/internal/poly"
)

// This file completes the pipeline the paper motivates Gröbner bases
// with: "Gröbner Basis computation thus has applications in solving
// systems of nonlinear equations. The new set is analogous to a
// triangular set of equations that are solvable by substitution."
//
// Solve computes the reduced lexicographic basis, isolates the real roots
// of its univariate polynomial with exact Sturm sequences (the same
// machinery the Eigenvalue application uses on matrices, here on
// polynomials over Q), and back-solves through the triangular set,
// substituting each partial solution and isolating the roots of the
// resulting univariate polynomials.

// Solution is one real solution vector, with the residual of the original
// system at that point (a quality measure).
type Solution struct {
	X        []float64
	Residual float64
}

// solveTol is the absolute tolerance Solve isolates roots to.
const solveTol = 1e-9

// Solve computes all real solutions of the zero-dimensional system F over
// Q, to within solveTol, completing it with both criteria on. The system's
// ring must use lex order and rational coefficients; the reduced basis
// must be triangular (each leading monomial a pure power of one variable —
// the zero-dimensional lex normal case), which includes but is not
// limited to shape position.
func Solve(F []*poly.Poly) ([]Solution, error) {
	if len(F) == 0 {
		return nil, fmt.Errorf("groebner: empty system")
	}
	ring := F[0].Ring()
	if ring.Mod() != nil {
		return nil, fmt.Errorf("groebner: Solve needs rational coefficients")
	}
	if ring.Order().Name() != "lex" {
		return nil, fmt.Errorf("groebner: Solve needs lex order, have %s", ring.Order().Name())
	}
	b, err := Buchberger(F, Options{})
	if err != nil {
		return nil, err
	}
	red := b.Reduce()
	n := ring.N()

	// Triangular decomposition: for each variable, the basis polynomial
	// whose leading monomial is a pure power of that variable.
	tri := make([]*poly.Poly, n)
	for _, g := range red.Polys {
		lm := g.LeadMono()
		uses, pure := -1, true
		for v := 0; v < n; v++ {
			if lm[v] > 0 {
				if uses >= 0 {
					pure = false
				}
				uses = v
			}
		}
		if pure && uses >= 0 && tri[uses] == nil {
			tri[uses] = g
		}
	}
	for v := 0; v < n; v++ {
		if tri[v] == nil {
			return nil, fmt.Errorf("groebner: no pure power of %s leads the basis — the system is not zero-dimensional triangular", ring.Vars()[v])
		}
		// Every variable occurring in tri[v] must be v or a later one
		// (lex guarantees this for a reduced basis, but verify).
		for _, t := range tri[v].Terms() {
			for w := 0; w < v; w++ {
				if t.Mono[w] > 0 {
					return nil, fmt.Errorf("groebner: basis not triangular at %s", ring.Vars()[v])
				}
			}
		}
	}

	// Back-solve from the last variable to the first, extending partial
	// assignments through the cartesian product of the roots.
	assignments := [][]float64{make([]float64, n)}
	for v := n - 1; v >= 0; v-- {
		var next [][]float64
		for _, a := range assignments {
			u, err := substituteToUnivariate(tri[v], v, a)
			if err != nil {
				return nil, err
			}
			for _, r := range u.realRoots(solveTol) {
				ext := append([]float64(nil), a...)
				ext[v] = r
				next = append(next, ext)
			}
		}
		assignments = next
	}

	sols := make([]Solution, 0, len(assignments))
	for _, x := range assignments {
		sols = append(sols, Solution{X: x, Residual: residual(F, x)})
	}
	return sols, nil
}

// substituteToUnivariate substitutes the known values of variables > v
// into g and returns the resulting univariate polynomial in variable v
// (coefficients rationalised exactly from their float64 values).
func substituteToUnivariate(g *poly.Poly, v int, x []float64) (univariate, error) {
	coefs := map[int]float64{}
	maxDeg := 0
	for _, t := range g.Terms() {
		c, _ := t.Coef.Float64()
		for w := v + 1; w < len(x); w++ {
			c *= powf(x[w], t.Mono[w])
		}
		d := t.Mono[v]
		coefs[d] += c
		if d > maxDeg {
			maxDeg = d
		}
	}
	u := make(univariate, maxDeg+1)
	for i := range u {
		r := new(big.Rat)
		if c, ok := coefs[i]; ok && !math.IsNaN(c) && !math.IsInf(c, 0) {
			r.SetFloat64(c)
		}
		u[i] = r
	}
	u = u.trim()
	if u.degree() < 1 {
		return nil, fmt.Errorf("groebner: degenerate substitution for variable %d", v)
	}
	return u, nil
}

// residual returns max_i |F_i(x)| evaluated in float64.
func residual(F []*poly.Poly, x []float64) float64 {
	worst := 0.0
	for _, f := range F {
		v := evalFloat(f, x)
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	return worst
}

// evalFloat evaluates a polynomial at a float64 point.
func evalFloat(f *poly.Poly, x []float64) float64 {
	var sum float64
	for _, t := range f.Terms() {
		c, _ := t.Coef.Float64()
		term := c
		for v, e := range t.Mono {
			for k := 0; k < e; k++ {
				term *= x[v]
			}
		}
		sum += term
	}
	return sum
}

func powf(x float64, e int) float64 {
	out := 1.0
	for k := 0; k < e; k++ {
		out *= x
	}
	return out
}

// ---------------------------------------------------------------------------
// Exact univariate Sturm root isolation over Q.
// ---------------------------------------------------------------------------

// univariate is a dense univariate polynomial over Q, index = degree.
type univariate []*big.Rat

// toUnivariate extracts g as a univariate polynomial in variable v.
func toUnivariate(g *poly.Poly, v int) (univariate, bool) {
	var u univariate
	for _, t := range g.Terms() {
		for w := range t.Mono {
			if w != v && t.Mono[w] != 0 {
				return nil, false
			}
		}
		d := t.Mono[v]
		for len(u) <= d {
			u = append(u, new(big.Rat))
		}
		u[d] = new(big.Rat).Set(t.Coef)
	}
	return u.trim(), true
}

func (u univariate) trim() univariate {
	for len(u) > 0 && u[len(u)-1].Sign() == 0 {
		u = u[:len(u)-1]
	}
	return u
}

func (u univariate) degree() int { return len(u) - 1 }

// eval evaluates at a rational point (Horner).
func (u univariate) eval(x *big.Rat) *big.Rat {
	acc := new(big.Rat)
	for i := len(u) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, u[i])
	}
	return acc
}

// derivative returns u'.
func (u univariate) derivative() univariate {
	if len(u) <= 1 {
		return univariate{}
	}
	d := make(univariate, len(u)-1)
	for i := 1; i < len(u); i++ {
		d[i-1] = new(big.Rat).Mul(u[i], big.NewRat(int64(i), 1))
	}
	return d.trim()
}

// rem returns the remainder of a / b (b nonzero).
func (u univariate) rem(b univariate) univariate {
	r := make(univariate, len(u))
	for i := range u {
		r[i] = new(big.Rat).Set(u[i])
	}
	r = r.trim()
	for len(r) >= len(b) && len(r) > 0 {
		// r -= (lead(r)/lead(b)) * x^(dr-db) * b
		q := new(big.Rat).Quo(r[len(r)-1], b[len(b)-1])
		shift := len(r) - len(b)
		for i := range b {
			t := new(big.Rat).Mul(q, b[i])
			r[shift+i].Sub(r[shift+i], t)
		}
		r = r.trim()
	}
	return r
}

// sturmChain builds the Sturm sequence u, u', -rem(...), ...
func (u univariate) sturmChain() []univariate {
	chain := []univariate{u.trim(), u.derivative()}
	for {
		last := chain[len(chain)-1]
		if len(last) == 0 {
			return chain[:len(chain)-1]
		}
		prev := chain[len(chain)-2]
		r := prev.rem(last)
		for i := range r {
			r[i].Neg(r[i])
		}
		if len(r) == 0 {
			return chain
		}
		chain = append(chain, r)
	}
}

// variations counts sign changes of the chain at x.
func variations(chain []univariate, x *big.Rat) int {
	count, prev := 0, 0
	for _, p := range chain {
		s := p.eval(x).Sign()
		if s == 0 {
			continue
		}
		if prev != 0 && s != prev {
			count++
		}
		prev = s
	}
	return count
}

// rootBound returns a Cauchy bound on the absolute value of the roots.
func (u univariate) rootBound() *big.Rat {
	lead := new(big.Rat).Abs(u[len(u)-1])
	max := new(big.Rat)
	for _, c := range u[:len(u)-1] {
		a := new(big.Rat).Abs(c)
		if a.Cmp(max) > 0 {
			max = a
		}
	}
	b := new(big.Rat).Quo(max, lead)
	return b.Add(b, big.NewRat(1, 1))
}

// realRoots isolates and refines all distinct real roots to tolerance tol.
func (u univariate) realRoots(tol float64) []float64 {
	u = u.trim()
	if u.degree() < 1 {
		return nil
	}
	chain := u.sturmChain()
	bound := u.rootBound()
	lo := new(big.Rat).Neg(bound)
	hi := bound
	var out []float64
	var isolate func(a, b *big.Rat, va, vb int)
	isolate = func(a, b *big.Rat, va, vb int) {
		nroots := va - vb
		if nroots == 0 {
			return
		}
		width := new(big.Rat).Sub(b, a)
		wf, _ := width.Float64()
		if nroots == 1 && wf <= tol {
			mid := midpoint(a, b)
			m, _ := mid.Float64()
			out = append(out, m)
			return
		}
		mid := midpoint(a, b)
		// Nudge off an exact root of the chain (variations at a root of u
		// are still well-defined for Sturm, but avoid duplicated
		// endpoints): if u(mid) == 0, we found a root exactly.
		if u.eval(mid).Sign() == 0 && nroots >= 1 {
			m, _ := mid.Float64()
			out = append(out, m)
			// Remaining roots lie strictly inside the halves.
			eps := new(big.Rat).Mul(width, big.NewRat(1, 1<<20))
			left := new(big.Rat).Sub(mid, eps)
			right := new(big.Rat).Add(mid, eps)
			vl, vr := variations(chain, left), variations(chain, right)
			isolate(a, left, va, vl)
			isolate(right, b, vr, vb)
			return
		}
		vm := variations(chain, mid)
		isolate(a, mid, va, vm)
		isolate(mid, b, vm, vb)
	}
	isolate(lo, hi, variations(chain, lo), variations(chain, hi))
	// Sort ascending (isolation emits left-to-right already, but exact
	// hits interleave).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func midpoint(a, b *big.Rat) *big.Rat {
	m := new(big.Rat).Add(a, b)
	return m.Mul(m, big.NewRat(1, 2))
}
