package poly

import (
	"fmt"
	"math/big"
)

// Coefficient arithmetic is mediated by the ring so that a ring can work
// either over Q (exact rationals) or over a prime field GF(p). Over GF(p)
// every coefficient of the generic term form is an integer-valued
// *big.Rat in [0, p); this bounds coefficient growth, which matters for
// lexicographic Gröbner bases whose rational coefficients otherwise
// explode (the classical reason computer-algebra systems run large
// examples like Katsura-5 modularly). The packed form (packed.go) holds
// the same residues as uint32 and never calls these functions.

// Mod returns the ring's prime modulus, or nil when the ring is over Q.
func (r *Ring) Mod() *big.Int { return r.mod }

// NewRingMod builds a polynomial ring over GF(p). p must be prime — 2 is
// accepted — and anything else panics: the check (big.Int.ProbablyPrime)
// is exact for every int64, and a composite modulus would silently break
// inverses.
func NewRingMod(ord Order, p int64, vars ...string) *Ring {
	r := NewRing(ord, vars...)
	bp := big.NewInt(p)
	if p < 2 || !bp.ProbablyPrime(20) {
		panic(fmt.Sprintf("poly: modulus %d is not prime", p))
	}
	r.mod = bp
	r.modInt = p
	r.pack = packKindFor(ord, len(vars), p)
	if r.pack != packNone {
		r.modp = newModulus(uint64(p))
	}
	return r
}

// cnorm normalises a coefficient for this ring: identity over Q, value mod
// p over GF(p). The input may be any rational; over GF(p) a denominator is
// cleared with a modular inverse.
func (r *Ring) cnorm(c *big.Rat) *big.Rat {
	if r.mod == nil {
		return c
	}
	num := new(big.Int).Mod(c.Num(), r.mod)
	if c.IsInt() {
		return new(big.Rat).SetInt(num)
	}
	den := new(big.Int).Mod(c.Denom(), r.mod)
	if den.Sign() == 0 {
		panic("poly: denominator divisible by modulus")
	}
	den.ModInverse(den, r.mod)
	num.Mul(num, den).Mod(num, r.mod)
	return new(big.Rat).SetInt(num)
}

// cadd returns a+b in the ring's coefficient field.
func (r *Ring) cadd(a, b *big.Rat) *big.Rat {
	if r.modInt != 0 && a.IsInt() && b.IsInt() {
		return new(big.Rat).SetInt64((a.Num().Int64() + b.Num().Int64()) % r.modInt)
	}
	return r.cnorm(new(big.Rat).Add(a, b))
}

// cmul returns a*b in the ring's coefficient field.
func (r *Ring) cmul(a, b *big.Rat) *big.Rat {
	if r.modInt != 0 && r.modInt < 1<<31 && a.IsInt() && b.IsInt() {
		return new(big.Rat).SetInt64(a.Num().Int64() * b.Num().Int64() % r.modInt)
	}
	return r.cnorm(new(big.Rat).Mul(a, b))
}

// cneg returns -a in the ring's coefficient field.
func (r *Ring) cneg(a *big.Rat) *big.Rat {
	if r.modInt != 0 && a.IsInt() && a.Num().IsInt64() {
		v := -(a.Num().Int64() % r.modInt)
		if v < 0 {
			v += r.modInt
		}
		return new(big.Rat).SetInt64(v)
	}
	return r.cnorm(new(big.Rat).Neg(a))
}

// cinv returns 1/a in the ring's coefficient field. Panics on zero.
func (r *Ring) cinv(a *big.Rat) *big.Rat {
	if a.Sign() == 0 {
		panic("poly: inverse of zero")
	}
	if r.mod == nil {
		return new(big.Rat).Inv(a)
	}
	return r.cnorm(new(big.Rat).Inv(a))
}

// cquo returns a/b in the ring's coefficient field. Panics on zero b.
func (r *Ring) cquo(a, b *big.Rat) *big.Rat { return r.cmul(a, r.cinv(b)) }
