package poly

import (
	"math/big"
)

// This file implements the multivariate division algorithm and
// S-polynomials — the computational core of Buchberger's algorithm. A
// "reduction" of a polynomial against the current basis is the unit of
// work the paper's Gröbner application parallelises.
//
// There are two engines behind SPoly, Monic, Reducer.NormalForm and
// Reducer.Reduce, and the ring decides which runs. The packed engine
// (reduce_packed.go) works on the flat key/residue slices of packed.go:
// the workspace is an open-addressing table from monomial key to
// accumulated residue plus a max-heap of keys, so a term operation is an
// integer add, a table probe and one modular multiply (by reciprocal, no
// division), and nothing is allocated but the result. The
// generic engine below works on []Term through the ring's coefficient
// functions, over Q or GF(p), with a string-keyed table and a heap of
// exponent vectors; it serves rings that do not pack and any operation
// whose monomials leave the packed range part-way (the operation is then
// redone generically from its inputs).
//
// Both engines run the same algorithm — eliminate the workspace's largest
// monomial, by the first divisor among those with the fewest terms — and
// ReduceStats counts its steps, not host work, so the statistics and the
// result do not depend on which engine ran. A Reducer retains either
// workspace across calls.

// ReduceStats reports the work a reduction performed, which the
// application layer uses to charge modelled compute time (reduction times
// "potentially vary by several orders of magnitude").
type ReduceStats struct {
	// Steps counts single reduction steps (one divisor application).
	Steps int
	// TermOps counts term-level arithmetic operations, the dominant cost.
	TermOps int
}

// SPoly returns the S-polynomial of f and g:
//
//	S(f,g) = (lcm/lt(f))*f - (lcm/lt(g))*g,  lcm = LCM(lm(f), lm(g)).
//
// Both inputs must be nonzero.
func SPoly(f, g *Poly) *Poly {
	f.checkRing(g)
	if f.packed() && g.packed() && !f.IsZero() && !g.IsZero() {
		n := len(f.keys) + len(g.keys) - 2
		if keys, coefs, ok := spolyPacked(f, g, make([]uint64, 0, n), make([]uint32, 0, n)); ok {
			return &Poly{ring: f.ring, keys: keys, coefs: coefs}
		}
	}
	lf, lg := f.LeadTerm(), g.LeadTerm()
	lcm := lf.Mono.LCM(lg.Mono)
	cf := f.ring.cinv(lf.Coef)
	cg := g.ring.cinv(lg.Coef)
	a := f.MulTerm(cf, lcm.Div(lf.Mono))
	b := g.MulTerm(cg, lcm.Div(lg.Mono))
	return a.Sub(b)
}

// appendMonoKey encodes a monomial into dst as a comparable map key (two
// bytes per exponent, which bounds exponents at 65535 — far beyond any
// computation this library performs).
func appendMonoKey(dst []byte, m Mono) []byte {
	for _, e := range m {
		dst = append(dst, byte(e>>8), byte(e))
	}
	return dst
}

// monoHeap is a concrete lazy max-heap of monomials under a ring order —
// no container/heap, no interface boxing. Monomials in the heap are
// pairwise distinct (the workspace map guards insertion), so the pop
// order is the unique descending order regardless of heap shape. Stale
// entries (monomials whose workspace coefficient has become zero) are
// skipped at pop time.
type monoHeap struct {
	ord Order
	ms  []Mono
}

func (h *monoHeap) len() int { return len(h.ms) }

func (h *monoHeap) push(m Mono) {
	s := append(h.ms, m)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.ord.Compare(s[i], s[parent]) <= 0 {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	h.ms = s
}

func (h *monoHeap) pop() Mono {
	s := h.ms
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil // release the exponent vector
	s = s[:n]
	h.ms = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.ord.Compare(s[r], s[best]) > 0 {
			best = r
		}
		if h.ord.Compare(s[best], s[i]) <= 0 {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// Reducer runs normal-form computations while retaining the workspace of
// whichever engine ran — table, heap and scratch buffers — across calls,
// so a completion run allocates per reduction only the result. It also
// keeps the basis it divides by, with the packed engine's divisor table,
// from one reduction to the next until the caller says the basis changed
// (SetBasis). A Reducer is not safe for concurrent use; the zero value is
// ready.
type Reducer struct {
	basis []*Poly // what Reduce divides by (SetBasis)
	// built reports that the packed divisor table reflects basis; when
	// it does, packedOK reports that every divisor is a packed polynomial
	// of ring (nil when there is no divisor).
	built, packedOK bool
	ring            *Ring
	packed          packedWorkspace
	generic         genericWorkspace
}

// genericWorkspace is the generic engine's state. ws maps an encoded
// monomial to its index in coef. Entries are never deleted during a run:
// reduction only ever adds monomials strictly below the one being
// eliminated, so a popped monomial cannot re-enter the workspace.
type genericWorkspace struct {
	heap   monoHeap
	ws     map[string]int
	coef   []*big.Rat
	keyBuf []byte
	prod   Mono // scratch for base*shift exponent sums
}

// NewReducer returns an empty Reducer.
func NewReducer() *Reducer { return &Reducer{} }

// SetBasis makes G the basis Reduce divides by; zero and nil polynomials
// in it are ignored. It is also how a caller says that its basis changed:
// the divisor table is dropped here and built from G at the first
// reduction that needs it, then kept for every reduction until the next
// SetBasis. A caller that changes G, in place or by appending, calls
// SetBasis again before it next reduces. SetBasis(nil) leaves the Reducer
// at rest: it refers to no polynomial, so one kept in a pool pins no
// basis.
func (r *Reducer) SetBasis(G []*Poly) {
	r.basis, r.built, r.packedOK, r.ring = G, false, false, nil
	r.packed.dropDivisors()
}

// Reduce returns, with its statistics, the normal form modulo the basis of
// f or, when g is not nil, of S(f, g): it has no term divisible by any
// leading monomial of the basis, and f (or S(f, g)) equals it plus a
// combination of the basis. On the packed engine the S-polynomial is
// merged into slices the workspace owns and reduced from there, so nothing
// is allocated but the result. f and g must be nonzero and of one ring.
func (r *Reducer) Reduce(f, g *Poly) (*Poly, ReduceStats) { return r.reduce(f, g, false) }

// ReduceMonic is Reduce with a nonzero normal form made monic: the result
// and statistics of Reduce(f, g) followed by Monic, but the packed engine
// scales the coefficients in its one copy out of the workspace.
func (r *Reducer) ReduceMonic(f, g *Poly) (*Poly, ReduceStats) { return r.reduce(f, g, true) }

// reduce is Reduce, and ReduceMonic when monic is set.
func (r *Reducer) reduce(f, g *Poly, monic bool) (*Poly, ReduceStats) {
	if g != nil {
		f.checkRing(g)
	}
	if r.packedBasis(f) {
		w := &r.packed
		keys, coefs, ok := f.keys, f.coefs, true
		if g != nil {
			ok = g.packed() && !f.IsZero() && !g.IsZero()
			if ok {
				w.spK, w.spC, ok = spolyPacked(f, g, w.spK[:0], w.spC[:0])
				keys, coefs = w.spK, w.spC
			}
		}
		if ok {
			if nf, st, ok := w.reduce(f.ring, keys, coefs, monic); ok {
				return nf, st
			}
		}
	}
	if g != nil {
		f = SPoly(f, g)
	}
	nf, st := r.generic.normalForm(f, r.basis)
	if monic && !nf.IsZero() {
		nf = nf.Monic()
	}
	return nf, st
}

// packedBasis reports whether the packed engine can reduce f: f is packed
// and every divisor of the basis is a packed polynomial of f's ring. It
// builds the divisor table first if SetBasis dropped it.
func (r *Reducer) packedBasis(f *Poly) bool {
	if !f.packed() {
		return false
	}
	if !r.built {
		r.ring, r.packedOK = r.packed.setDivisors(r.basis)
		r.built = true
	}
	return r.packedOK && (r.ring == nil || r.ring == f.ring)
}

// NormalForm reduces f completely modulo G: it is Reduce(f, nil) with G as
// the basis, and leaves the Reducer at rest. It returns the normal form
// and reduction statistics. Zero and nil polynomials in G are ignored.
//
// The classical invariant holds: f = (combination of G) + result.
func (r *Reducer) NormalForm(f *Poly, G []*Poly) (*Poly, ReduceStats) {
	r.SetBasis(G)
	nf, st := r.Reduce(f, nil)
	r.SetBasis(nil)
	return nf, st
}

// NormalForm is the convenience form using a throwaway workspace. Hot
// loops (Buchberger runs) should hold a Reducer instead.
func NormalForm(f *Poly, G []*Poly) (*Poly, ReduceStats) {
	var r Reducer
	return r.NormalForm(f, G)
}

// findReducer returns the terms of some divisor (none is empty) whose
// leading monomial divides m, preferring the one with the fewest terms
// (cheapest step), or nil.
func findReducer(m Mono, G [][]Term) []Term {
	var best []Term
	for _, g := range G {
		if g[0].Mono.Divides(m) && (best == nil || len(g) < len(best)) {
			best = g
		}
	}
	return best
}

// lookupAdd resolves the workspace slot for base (times shift, when shift
// is non-nil, computed into the reused scratch without allocating). It
// returns the slot index and whether the monomial was already present; on
// a miss the monomial is registered and pushed on the heap (cloning the
// scratch product so the heap owns it).
func (r *genericWorkspace) lookupAdd(base, shift Mono) (int, bool) {
	m := base
	if shift != nil {
		prod := r.prod[:0]
		for i, e := range base {
			prod = append(prod, e+shift[i])
		}
		r.prod = prod
		m = prod
	}
	key := appendMonoKey(r.keyBuf[:0], m)
	r.keyBuf = key
	if idx, ok := r.ws[string(key)]; ok {
		return idx, true
	}
	if shift != nil {
		m = m.Clone()
	}
	r.heap.push(m)
	idx := len(r.coef)
	r.ws[string(key)] = idx
	return idx, false
}

// normalForm is the reduction engine over []Term; coefficients go through
// the ring, so it serves Q and GF(p) alike.
func (r *genericWorkspace) normalForm(f *Poly, G []*Poly) (*Poly, ReduceStats) {
	var st ReduceStats
	ring := f.ring
	if r.ws == nil {
		r.ws = make(map[string]int, f.NumTerms()*2)
	} else {
		clear(r.ws)
	}
	r.heap.ord = ring.ord
	r.heap.ms = r.heap.ms[:0]
	r.coef = r.coef[:0]
	divisors := make([][]Term, 0, len(G))
	for _, g := range G {
		if g != nil && !g.IsZero() {
			divisors = append(divisors, g.Terms())
		}
	}
	// add accumulates c, which the workspace may keep: callers pass
	// values nothing else refers to.
	add := func(base, shift Mono, c *big.Rat) {
		if idx, ok := r.lookupAdd(base, shift); ok {
			r.coef[idx] = ring.cadd(r.coef[idx], c)
		} else {
			r.coef = append(r.coef, c)
		}
	}
	for _, t := range f.Terms() {
		add(t.Mono, nil, new(big.Rat).Set(t.Coef))
	}
	one := big.NewRat(1, 1)
	var rem []Term
	for r.heap.len() > 0 {
		m := r.heap.pop()
		key := appendMonoKey(r.keyBuf[:0], m)
		r.keyBuf = key
		c := r.coef[r.ws[string(key)]]
		if c.Sign() == 0 {
			continue // stale entry
		}
		g := findReducer(m, divisors)
		if g == nil {
			rem = append(rem, Term{Coef: c, Mono: m})
			st.TermOps++
			continue
		}
		// Add -(c / lc(g)) * (m / lm(g)) * g; the lead cancels exactly.
		q := c
		if g[0].Coef.Cmp(one) != 0 {
			q = ring.cquo(c, g[0].Coef)
		}
		q = ring.cneg(q)
		shift := m.Div(g[0].Mono)
		for _, gt := range g[1:] {
			add(gt.Mono, shift, ring.cmul(q, gt.Coef))
		}
		st.Steps++
		st.TermOps += len(g)
	}
	// rem was produced in strictly descending order (heap pops).
	return ring.newPoly(rem), st
}

// ReducesToZero reports whether f reduces to zero modulo G (the Buchberger
// criterion test for one S-polynomial).
func ReducesToZero(f *Poly, G []*Poly) bool {
	nf, _ := NormalForm(f, G)
	return nf.IsZero()
}
