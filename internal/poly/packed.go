package poly

import (
	"math/big"
	"math/bits"
)

// Packed representation. Over a small prime field, under one of the three
// built-in orders and with few enough variables, a polynomial is stored as
// two flat slices: one uint64 key per monomial and one uint32 residue per
// coefficient. A key holds eight 8-bit fields, most significant first:
//
//	Lex      e1 e2 .. en            n <= 8
//	GrLex    deg e1 e2 .. en        n <= 7
//	GRevLex  s_n s_(n-1) .. s_1     n <= 8, s_k = e1+..+ek (s_n is the degree)
//
// Unused low fields are zero. Every field is additive under monomial
// product and, read as one integer, the fields compare exactly as the
// order does, so comparison is <, product is +, exact quotient is - and
// the key is its own hash input. Only seven bits of a field are used
// (values 0..127): the eighth is a guard bit. A product whose sum sets a
// guard bit has left the representable range, and (b|guards)-a keeps
// every guard bit exactly when each field of a is <= that of b — the
// divisibility test, taken on the exponent words of expWord.
//
// A ring that cannot pack (over Q, a modulus of 2^32 or more, too many
// variables, an Order other than Lex/GrLex/GRevLex) and a polynomial
// with an exponent beyond the field range keep the generic []Term form;
// every operation accepts both.

const (
	fieldMax  = 127
	guardBits = 0x8080808080808080
)

// packKind is the key layout of a ring; packNone means the ring does not
// pack.
type packKind uint8

const (
	packNone packKind = iota
	packLex
	packGrLex
	packGRevLex
)

// packKindFor chooses the layout from ring properties alone.
func packKindFor(ord Order, n int, mod int64) packKind {
	if mod <= 0 || mod >= 1<<32 {
		return packNone
	}
	switch ord.(type) {
	case Lex:
		if n <= 8 {
			return packLex
		}
	case GrLex:
		if n <= 7 {
			return packGrLex
		}
	case GRevLex:
		if n <= 8 {
			return packGRevLex
		}
	}
	return packNone
}

// fieldShift returns the bit offset of variable i's field.
func (r *Ring) fieldShift(i int) uint {
	switch r.pack {
	case packGrLex:
		return uint(48 - 8*i)
	case packGRevLex:
		return uint(56 - 8*(len(r.vars)-1-i))
	}
	return uint(56 - 8*i)
}

// packMono encodes m; ok is false when a field would exceed fieldMax.
func (r *Ring) packMono(m Mono) (key uint64, ok bool) {
	deg := 0
	for i, e := range m {
		if e > fieldMax {
			return 0, false
		}
		deg += e
		f := e
		if r.pack == packGRevLex {
			f = deg
		}
		key |= uint64(f) << r.fieldShift(i)
	}
	if r.pack == packLex {
		return key, true
	}
	if r.pack == packGrLex {
		key |= uint64(deg) << 56
	}
	return key, deg <= fieldMax
}

// expWord returns the word whose field i is the exponent of variable i
// (GrLex keeps its degree field, which a divisor never exceeds either).
func (r *Ring) expWord(key uint64) uint64 {
	if r.pack == packGRevLex {
		return key - key<<8 // s_k - s_(k-1); no field borrows, sums ascend
	}
	return key
}

// unpackMono decodes key into m, which must have the ring's arity.
func (r *Ring) unpackMono(key uint64, m Mono) {
	w := r.expWord(key)
	for i := range m {
		m[i] = int(w >> r.fieldShift(i) & 0xff)
	}
}

// wordDivides reports whether every field of exponent word a is <= the
// same field of b.
func wordDivides(a, b uint64) bool { return ((b|guardBits)-a)&guardBits == guardBits }

// lcmKey returns the key of lcm(a, b); ok is false when it does not fit.
func (r *Ring) lcmKey(a, b uint64) (uint64, bool) {
	var ea, eb [8]int
	n := len(r.vars)
	r.unpackMono(a, ea[:n])
	r.unpackMono(b, eb[:n])
	for i, e := range eb[:n] {
		if e > ea[i] {
			ea[i] = e
		}
	}
	return r.packMono(ea[:n])
}

// OrderKey returns an integer that orders m among the ring's monomials
// exactly as the ring's order does — the key of the packed form, which a
// caller sorting many monomials can compare in place of Order.Compare. ok
// is false when the ring does not pack or m lies outside the packed range.
func (r *Ring) OrderKey(m Mono) (key uint64, ok bool) {
	if r.pack == packNone {
		return 0, false
	}
	return r.packMono(m)
}

// packed reports whether p is held in packed form. In a packing ring a
// polynomial keeps generic terms only when one of them does not fit.
func (p *Poly) packed() bool { return p.ring.pack != packNone && len(p.terms) == 0 }

// newPoly wraps normalised, strictly descending, nonzero terms (which it
// takes ownership of), packing them when the ring and the exponents allow.
func (r *Ring) newPoly(ts []Term) *Poly {
	if r.pack == packNone || len(ts) == 0 {
		return &Poly{ring: r, terms: ts}
	}
	keys := make([]uint64, len(ts))
	coefs := make([]uint32, len(ts))
	for i, t := range ts {
		k, ok := r.packMono(t.Mono)
		if !ok || !t.Coef.IsInt() || !t.Coef.Num().IsUint64() || t.Coef.Num().Uint64() >= uint64(r.modInt) {
			return &Poly{ring: r, terms: ts}
		}
		keys[i], coefs[i] = k, uint32(t.Coef.Num().Uint64())
	}
	return &Poly{ring: r, keys: keys, coefs: coefs}
}

// unpackTerms materialises the packed form as fresh terms; nothing is
// cached on p, so concurrent callers share no state.
func (p *Poly) unpackTerms(n int) []Term {
	nv := len(p.ring.vars)
	ts := make([]Term, n)
	exps := make(Mono, n*nv)
	for i := range ts {
		m := exps[i*nv : (i+1)*nv : (i+1)*nv]
		p.ring.unpackMono(p.keys[i], m)
		ts[i] = Term{Coef: new(big.Rat).SetInt64(int64(p.coefs[i])), Mono: m}
	}
	return ts
}

// modulus is a prime below 2^32 with the reciprocal that takes the division
// out of a reduction: recip = floor((2^64-1)/p). For any x, the high word
// of x*recip is floor(x/p) or one less (the estimate falls short by
// x*(1+e)/(p*2^64) with e = (2^64-1) mod p < p, which is below 1), so
// x - q*p lies in [0, 2p) and one conditional subtraction finishes. That
// holds for every 64-bit x, in particular the product of two residues.
type modulus struct{ p, recip uint64 }

func newModulus(p uint64) modulus { return modulus{p, ^uint64(0) / p} }

// reduce returns x mod p.
func (m modulus) reduce(x uint64) uint64 {
	q, _ := bits.Mul64(x, m.recip)
	r := x - q*m.p
	if r >= m.p {
		r -= m.p
	}
	return r
}

// inverse returns a^-1 mod p by Fermat exponentiation. Panics on zero.
func (m modulus) inverse(a uint32) uint64 {
	if a == 0 {
		panic("poly: modular inverse of zero")
	}
	result, base := uint64(1), uint64(a)
	for e := m.p - 2; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = m.reduce(result * base)
		}
		base = m.reduce(base * base)
	}
	return result
}
