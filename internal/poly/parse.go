package poly

import (
	"fmt"
	"math"
	"math/big"
	"unicode"
)

// Parse builds a polynomial from a textual form like
//
//	"x^2*y - 2/3*z + 1"
//
// Grammar: a signed sum of terms; a term is a product (with '*') of an
// optional rational coefficient ("2", "-2/3") and variable powers
// ("x", "x^3"). Whitespace is free. Variable names are the ring's.
func (r *Ring) Parse(s string) (*Poly, error) {
	p := &parser{ring: r, in: s}
	poly, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("poly: parse %q: %w", s, err)
	}
	return poly, nil
}

// MustParse is Parse that panics on error; for literals in tests and
// input tables.
func (r *Ring) MustParse(s string) *Poly {
	p, err := r.Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// maxExponent bounds an exponent, and an exponent sum within a term, in
// parsed input: far beyond any polynomial this package can compute with,
// and far below where the int arithmetic of monomials could wrap.
var maxExponent = big.NewInt(math.MaxInt32)

type parser struct {
	ring *Ring
	in   string
	pos  int
}

func (p *parser) parse() (*Poly, error) {
	out := p.ring.Zero()
	first := true
	for {
		p.skipSpace()
		if p.pos >= len(p.in) {
			if first {
				return nil, fmt.Errorf("empty input")
			}
			return out, nil
		}
		sign := 1
		switch p.in[p.pos] {
		case '+':
			if first {
				return nil, fmt.Errorf("leading '+'")
			}
			p.pos++
		case '-':
			sign = -1
			p.pos++
		default:
			if !first {
				return nil, fmt.Errorf("expected '+' or '-' at %d", p.pos)
			}
		}
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if sign < 0 {
			t = t.Neg()
		}
		out = out.Add(t)
		first = false
	}
}

func (p *parser) parseTerm() (*Poly, error) {
	p.skipSpace()
	coef := big.NewRat(1, 1)
	mono := NewMono(p.ring.N())
	sawFactor := false
	for {
		p.skipSpace()
		if p.pos >= len(p.in) {
			break
		}
		c := p.in[p.pos]
		switch {
		case c >= '0' && c <= '9':
			q, err := p.parseRat()
			if err != nil {
				return nil, err
			}
			coef.Mul(coef, q)
			sawFactor = true
		case isVarStart(rune(c)):
			name := p.parseIdent()
			idx := p.ring.VarIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("unknown variable %q at %d", name, p.pos)
			}
			e := 1
			p.skipSpace()
			if p.pos < len(p.in) && p.in[p.pos] == '^' {
				p.pos++
				q, err := p.parseRat()
				if err != nil {
					return nil, err
				}
				if !q.IsInt() || q.Sign() < 0 {
					return nil, fmt.Errorf("bad exponent at %d", p.pos)
				}
				if q.Num().Cmp(maxExponent) > 0 {
					return nil, fmt.Errorf("exponent above %d at %d", math.MaxInt32, p.pos)
				}
				e = int(q.Num().Int64())
			}
			if mono[idx] > math.MaxInt32-e {
				return nil, fmt.Errorf("exponent of %s above %d at %d", name, math.MaxInt32, p.pos)
			}
			mono[idx] += e
			sawFactor = true
		default:
			if !sawFactor {
				return nil, fmt.Errorf("expected term at %d", p.pos)
			}
			return p.term(coef, mono)
		}
		p.skipSpace()
		if p.pos < len(p.in) && p.in[p.pos] == '*' {
			p.pos++
			continue
		}
		// Without '*', only another sign or end may follow.
		if p.pos < len(p.in) && p.in[p.pos] != '+' && p.in[p.pos] != '-' {
			// Allow implicit product like "2x"? No: require '*'.
			if isVarStart(rune(p.in[p.pos])) || (p.in[p.pos] >= '0' && p.in[p.pos] <= '9') {
				return nil, fmt.Errorf("missing '*' at %d", p.pos)
			}
		}
		break
	}
	if !sawFactor {
		return nil, fmt.Errorf("expected term at %d", p.pos)
	}
	return p.term(coef, mono)
}

// term builds the parsed term. Over GF(p) a coefficient whose denominator
// the modulus divides has no value: that is an input error, not a panic.
func (p *parser) term(coef *big.Rat, mono Mono) (*Poly, error) {
	if m := p.ring.mod; m != nil && new(big.Int).Mod(coef.Denom(), m).Sign() == 0 {
		return nil, fmt.Errorf("denominator of %s divisible by the modulus %s at %d", coef.RatString(), m, p.pos)
	}
	return p.ring.FromTerms([]Term{{Coef: coef, Mono: mono}}), nil
}

func (p *parser) parseRat() (*big.Rat, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return nil, fmt.Errorf("expected number at %d", p.pos)
	}
	numStr := p.in[start:p.pos]
	den := "1"
	if p.pos < len(p.in) && p.in[p.pos] == '/' {
		p.pos++
		dstart := p.pos
		for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
			p.pos++
		}
		if dstart == p.pos {
			return nil, fmt.Errorf("expected denominator at %d", p.pos)
		}
		den = p.in[dstart:p.pos]
	}
	q, ok := new(big.Rat).SetString(numStr + "/" + den)
	if !ok {
		return nil, fmt.Errorf("bad rational at %d", start)
	}
	return q, nil
}

func (p *parser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.in) && isVarPart(rune(p.in[p.pos])) {
		p.pos++
	}
	return p.in[start:p.pos]
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && unicode.IsSpace(rune(p.in[p.pos])) {
		p.pos++
	}
}

func isVarStart(c rune) bool { return unicode.IsLetter(c) || c == '_' }
func isVarPart(c rune) bool  { return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' }
