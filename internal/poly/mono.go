// Package poly implements exact sparse multivariate polynomial arithmetic
// over the rationals or a prime field GF(p): monomials, the classical
// monomial orders, polynomial ring operations, the multivariate division
// algorithm and S-polynomials. It is the algebraic substrate of the
// Gröbner-basis application.
//
// The paper represents polynomials "in a compacted form as vectors". Here
// a polynomial is a term vector sorted by descending monomial, in one of
// two forms: generically, a []Term of *big.Rat coefficients and Mono
// exponent vectors (this file); or packed, one uint64 per monomial and one
// uint32 residue per coefficient (packed.go), wherever the ring is over a
// small prime field under a built-in order with few enough variables —
// which is every ring the paper's experiments use. Mono remains the
// exchange type of the API (LeadMono, Terms, critical-pair LCMs).
package poly

// Mono is a monomial: a vector of non-negative exponents, one per ring
// variable. Monomials are value-like; operations return fresh slices and
// never alias their inputs.
type Mono []int

// NewMono returns the constant monomial (all exponents zero) in n
// variables.
func NewMono(n int) Mono { return make(Mono, n) }

// Clone returns an independent copy.
func (m Mono) Clone() Mono {
	c := make(Mono, len(m))
	copy(c, m)
	return c
}

// TotalDeg returns the sum of exponents.
func (m Mono) TotalDeg() int {
	d := 0
	for _, e := range m {
		d += e
	}
	return d
}

// Equal reports componentwise equality.
func (m Mono) Equal(o Mono) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Mul returns m*o (componentwise exponent sum).
func (m Mono) Mul(o Mono) Mono {
	if len(m) != len(o) {
		panic("poly: monomial arity mismatch")
	}
	r := make(Mono, len(m))
	for i := range m {
		r[i] = m[i] + o[i]
	}
	return r
}

// Divides reports whether m divides o (m <= o componentwise).
func (m Mono) Divides(o Mono) bool {
	if len(m) != len(o) {
		panic("poly: monomial arity mismatch")
	}
	for i := range m {
		if m[i] > o[i] {
			return false
		}
	}
	return true
}

// Div returns o such that m = divisor * o. It panics if divisor does not
// divide m.
func (m Mono) Div(divisor Mono) Mono {
	if !divisor.Divides(m) {
		panic("poly: inexact monomial division")
	}
	r := make(Mono, len(m))
	for i := range m {
		r[i] = m[i] - divisor[i]
	}
	return r
}

// LCM returns the least common multiple (componentwise max).
func (m Mono) LCM(o Mono) Mono {
	if len(m) != len(o) {
		panic("poly: monomial arity mismatch")
	}
	r := make(Mono, len(m))
	for i := range m {
		if m[i] >= o[i] {
			r[i] = m[i]
		} else {
			r[i] = o[i]
		}
	}
	return r
}

// Coprime reports whether the monomials share no variable — the condition
// of Buchberger's first criterion (the S-polynomial of a coprime leading
// pair reduces to zero).
func (m Mono) Coprime(o Mono) bool {
	if len(m) != len(o) {
		panic("poly: monomial arity mismatch")
	}
	for i := range m {
		if m[i] > 0 && o[i] > 0 {
			return false
		}
	}
	return true
}
