package poly

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
)

// Ring is a polynomial ring Q[x1..xn] equipped with a monomial order.
type Ring struct {
	vars   []string
	ord    Order
	mod    *big.Int // prime modulus, nil over Q (see field.go)
	modInt int64    // mod as int64 for fast-path arithmetic, 0 over Q
	pack   packKind // monomial key layout, packNone if none (see packed.go)
	modp   modulus  // mod with its reciprocal, set when the ring packs
	zero   Poly     // the zero polynomial (polynomials are immutable: one serves)
}

// NewRing builds a ring over the given variables. Variable position is
// significance order for Lex (earlier = more significant).
func NewRing(ord Order, vars ...string) *Ring {
	if len(vars) == 0 {
		panic("poly: ring needs at least one variable")
	}
	seen := map[string]bool{}
	for _, v := range vars {
		if v == "" || seen[v] {
			panic(fmt.Sprintf("poly: bad or duplicate variable %q", v))
		}
		seen[v] = true
	}
	r := &Ring{vars: append([]string(nil), vars...), ord: ord}
	r.zero.ring = r
	return r
}

// N returns the number of variables.
func (r *Ring) N() int { return len(r.vars) }

// Vars returns the variable names.
func (r *Ring) Vars() []string { return append([]string(nil), r.vars...) }

// Order returns the ring's monomial order.
func (r *Ring) Order() Order { return r.ord }

// VarIndex returns the position of a variable name, or -1.
func (r *Ring) VarIndex(name string) int {
	for i, v := range r.vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Term is one coefficient-monomial pair. Coef is treated as immutable.
type Term struct {
	Coef *big.Rat
	Mono Mono
}

// Poly is a polynomial: nonzero terms sorted in strictly descending
// monomial order. The zero polynomial has no terms. Polynomials are
// immutable: all operations return new values. The terms are held either
// generically or, where the ring allows, packed (see packed.go).
type Poly struct {
	ring  *Ring
	terms []Term   // generic form
	keys  []uint64 // packed form: monomial keys, descending...
	coefs []uint32 // ...and their residues in [1, p)
}

// Zero returns the zero polynomial.
func (r *Ring) Zero() *Poly { return &r.zero }

// Const returns the constant polynomial q.
func (r *Ring) Const(q *big.Rat) *Poly {
	if q.Sign() == 0 {
		return r.Zero()
	}
	c := r.cnorm(new(big.Rat).Set(q))
	if c.Sign() == 0 {
		return r.Zero()
	}
	return r.newPoly([]Term{{Coef: c, Mono: NewMono(r.N())}})
}

// ConstInt returns the constant polynomial n.
func (r *Ring) ConstInt(n int64) *Poly { return r.Const(big.NewRat(n, 1)) }

// Var returns the polynomial x_i.
func (r *Ring) Var(i int) *Poly {
	m := NewMono(r.N())
	m[i] = 1
	return r.newPoly([]Term{{Coef: big.NewRat(1, 1), Mono: m}})
}

// FromTerms builds a polynomial from arbitrary (possibly unsorted,
// duplicated or zero) terms; the input Rats and Monos are copied.
func (r *Ring) FromTerms(ts []Term) *Poly {
	p := r.Zero()
	for _, t := range ts {
		if t.Coef.Sign() == 0 {
			continue
		}
		c := r.cnorm(new(big.Rat).Set(t.Coef))
		if c.Sign() == 0 {
			continue
		}
		p = p.Add(r.newPoly([]Term{{Coef: c, Mono: t.Mono.Clone()}}))
	}
	return p
}

// Ring returns the polynomial's ring.
func (p *Poly) Ring() *Ring { return p.ring }

// IsZero reports whether p is the zero polynomial.
func (p *Poly) IsZero() bool { return p.NumTerms() == 0 }

// NumTerms returns the number of (nonzero) terms.
func (p *Poly) NumTerms() int { return len(p.terms) + len(p.keys) }

// Terms returns the terms (callers must not mutate them). A packed
// polynomial materialises them on every call; hot loops use the packed
// kernels of reduce.go instead.
func (p *Poly) Terms() []Term {
	if p.packed() {
		return p.unpackTerms(len(p.keys))
	}
	return p.terms
}

// LeadTerm returns the leading term. Panics on zero.
func (p *Poly) LeadTerm() Term {
	if p.IsZero() {
		panic("poly: leading term of zero polynomial")
	}
	if p.packed() {
		return p.unpackTerms(1)[0]
	}
	return p.terms[0]
}

// LeadMono returns the leading monomial. Panics on zero.
func (p *Poly) LeadMono() Mono {
	if p.packed() && len(p.keys) > 0 {
		m := NewMono(p.ring.N())
		p.ring.unpackMono(p.keys[0], m)
		return m
	}
	return p.LeadTerm().Mono
}

// LeadCoef returns the leading coefficient. Panics on zero.
func (p *Poly) LeadCoef() *big.Rat { return p.LeadTerm().Coef }

// Bytes models the polynomial's size in its compacted vector
// representation: 8 bytes per coefficient plus 4 bytes per exponent entry
// (the quantity Table 2 reports as "mean size of polynomial").
func (p *Poly) Bytes() int { return p.NumTerms() * (8 + 4*p.ring.N()) }

// Equal reports structural equality (same terms, same coefficients).
func (p *Poly) Equal(q *Poly) bool {
	if p.NumTerms() != q.NumTerms() {
		return false
	}
	if p.ring == q.ring && p.packed() && q.packed() {
		return slices.Equal(p.keys, q.keys) && slices.Equal(p.coefs, q.coefs)
	}
	pt, qt := p.Terms(), q.Terms()
	for i := range pt {
		if pt[i].Coef.Cmp(qt[i].Coef) != 0 || !pt[i].Mono.Equal(qt[i].Mono) {
			return false
		}
	}
	return true
}

func (p *Poly) checkRing(q *Poly) {
	if p.ring != q.ring {
		panic("poly: mixed-ring operation")
	}
}

// Add returns p + q by sorted-merge of term lists.
func (p *Poly) Add(q *Poly) *Poly {
	p.checkRing(q)
	ord := p.ring.ord
	pt, qt := p.Terms(), q.Terms()
	copyOf := func(t Term) Term { return Term{Coef: new(big.Rat).Set(t.Coef), Mono: t.Mono.Clone()} }
	out := make([]Term, 0, len(pt)+len(qt))
	i, j := 0, 0
	for i < len(pt) && j < len(qt) {
		switch ord.Compare(pt[i].Mono, qt[j].Mono) {
		case 1:
			out = append(out, copyOf(pt[i]))
			i++
		case -1:
			out = append(out, copyOf(qt[j]))
			j++
		default:
			c := p.ring.cadd(pt[i].Coef, qt[j].Coef)
			if c.Sign() != 0 {
				out = append(out, Term{Coef: c, Mono: pt[i].Mono.Clone()})
			}
			i++
			j++
		}
	}
	for ; i < len(pt); i++ {
		out = append(out, copyOf(pt[i]))
	}
	for ; j < len(qt); j++ {
		out = append(out, copyOf(qt[j]))
	}
	return p.ring.newPoly(out)
}

// Neg returns -p.
func (p *Poly) Neg() *Poly {
	out := make([]Term, p.NumTerms())
	for i, t := range p.Terms() {
		out[i] = Term{Coef: p.ring.cneg(t.Coef), Mono: t.Mono.Clone()}
	}
	return p.ring.newPoly(out)
}

// Sub returns p - q.
func (p *Poly) Sub(q *Poly) *Poly { return p.Add(q.Neg()) }

// MulTerm returns p * (c * m). A zero c yields zero.
func (p *Poly) MulTerm(c *big.Rat, m Mono) *Poly {
	if c.Sign() == 0 || p.IsZero() {
		return p.ring.Zero()
	}
	out := make([]Term, p.NumTerms())
	for i, t := range p.Terms() {
		out[i] = Term{Coef: p.ring.cmul(t.Coef, c), Mono: t.Mono.Mul(m)}
	}
	return p.ring.newPoly(out)
}

// MulScalar returns c * p.
func (p *Poly) MulScalar(c *big.Rat) *Poly { return p.MulTerm(c, NewMono(p.ring.N())) }

// Mul returns p * q.
func (p *Poly) Mul(q *Poly) *Poly {
	p.checkRing(q)
	out := p.ring.Zero()
	for _, t := range p.Terms() {
		out = out.Add(q.MulTerm(t.Coef, t.Mono))
	}
	return out
}

// Monic returns p scaled so its leading coefficient is 1. Panics on zero.
func (p *Poly) Monic() *Poly {
	if p.packed() && len(p.keys) > 0 {
		return p.monicPacked()
	}
	return p.MulScalar(p.ring.cinv(p.LeadCoef()))
}

// String renders the polynomial in human/parser-compatible syntax.
func (p *Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	for i, t := range p.Terms() {
		c := t.Coef
		neg := c.Sign() < 0
		abs := new(big.Rat).Abs(c)
		if i == 0 {
			if neg {
				b.WriteString("-")
			}
		} else if neg {
			b.WriteString(" - ")
		} else {
			b.WriteString(" + ")
		}
		mono := p.monoString(t.Mono)
		switch {
		case mono == "":
			b.WriteString(abs.RatString())
		case abs.Cmp(big.NewRat(1, 1)) == 0:
			b.WriteString(mono)
		default:
			b.WriteString(abs.RatString())
			b.WriteString("*")
			b.WriteString(mono)
		}
	}
	return b.String()
}

func (p *Poly) monoString(m Mono) string {
	var parts []string
	for i, e := range m {
		switch {
		case e == 1:
			parts = append(parts, p.ring.vars[i])
		case e > 1:
			parts = append(parts, fmt.Sprintf("%s^%d", p.ring.vars[i], e))
		}
	}
	return strings.Join(parts, "*")
}

// Eval evaluates p at the given variable assignment (one value per ring
// variable) using exact rational arithmetic.
func (p *Poly) Eval(vals []*big.Rat) *big.Rat {
	if len(vals) != p.ring.N() {
		panic("poly: Eval arity mismatch")
	}
	sum := new(big.Rat)
	for _, t := range p.Terms() {
		term := new(big.Rat).Set(t.Coef)
		for i, e := range t.Mono {
			for k := 0; k < e; k++ {
				term = p.ring.cmul(term, vals[i])
			}
		}
		sum = p.ring.cadd(sum, term)
	}
	return sum
}
