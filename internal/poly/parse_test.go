package poly

import (
	"strings"
	"testing"
)

// parseRings are the rings the parser tests read into: generic over Q, and
// packed over GF(p) — where an exponent outside the field range used to
// wrap into a key instead of failing.
func parseRings() map[string]*Ring {
	return map[string]*Ring{
		"Q grlex":           NewRing(GrLex{}, "x", "y", "z"),
		"GF(32003) lex":     NewRingMod(Lex{}, 32003, "x", "y", "z"),
		"GF(7) grevlex":     NewRingMod(GRevLex{}, 7, "x", "y", "z"),
		"GF(32003) grevlex": NewRingMod(GRevLex{}, 32003, "x", "y", "z"),
	}
}

// overflowingInputs parsed silently at the parent commit: the first to a
// monomial with exponent -1 (printed x^255 by a packed ring), the other two
// to the constant 1, because the exponent was converted with Int64 from a
// big.Int it does not fit and summed unchecked.
var overflowingInputs = []string{
	"x^18446744073709551615",
	"x^9223372036854775807*x",
	"x^9223372036854775808",
}

func TestParseRejectsOverflowingExponents(t *testing.T) {
	for name, r := range parseRings() {
		for _, in := range append(overflowingInputs,
			"x^2147483648", "x^2147483647*x", "y^1073741824*y^1073741824", "1 + z^99999999999999999999") {
			if p, err := r.Parse(in); err == nil {
				t.Errorf("%s: Parse(%q) = %s, want an error", name, in, p)
			}
		}
		// The bound itself is accepted and survives a round trip.
		p, err := r.Parse("x^2147483647 + y^1073741823*y^1073741824")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := p.String(); got != "x^2147483647 + y^2147483647" && got != "y^2147483647 + x^2147483647" {
			t.Errorf("%s: prints %q", name, got)
		}
	}
}

// TestParseRejectsDenominatorOfModulus: over GF(7) 1/7 has no value; the
// parser reports it instead of panicking in the coefficient arithmetic.
func TestParseRejectsDenominatorOfModulus(t *testing.T) {
	r := parseRings()["GF(7) grevlex"]
	for _, in := range []string{"1/7*x", "x + 3/14", "2/49*y*z"} {
		if p, err := r.Parse(in); err == nil {
			t.Errorf("Parse(%q) = %s, want an error", in, p)
		}
	}
	if p, err := r.Parse("7/7*x + 3/2"); err != nil || p.String() != "x + 5" {
		t.Errorf("Parse = %v, %v; want x + 5", p, err)
	}
}

// FuzzParse: Parse takes text from files and flags. It must never panic,
// and whatever it accepts must print as text that parses back to an equal
// polynomial, in every ring kind.
func FuzzParse(f *testing.F) {
	for _, seed := range append(overflowingInputs,
		"x^2*y - 2/3*z + 1", "x^127*y + x^128", "x^2147483647", "1/7*x", "0*x + 0",
		"x - y; y - z\nz^2 - 1", "3*x^2*y^4 - 5/2*x*z + 17", "x^1/2", "2x", "+x", "-", "x^", "x*", "q") {
		f.Add(seed)
	}
	rings := parseRings()
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<10 {
			// Long digit strings only make the big.Rat normalisation slow
			// (its gcd is quadratic), and a stuck worker stalls the smoke.
			return
		}
		for name, r := range rings {
			if p, err := r.Parse(in); err == nil {
				roundTrip(t, name, r, p)
			}
		}
	})
}

// roundTrip fails t unless p's printed form parses back to p in r.
func roundTrip(t *testing.T, name string, r *Ring, p *Poly) {
	t.Helper()
	s := p.String()
	q, err := r.Parse(s)
	if err != nil {
		t.Fatalf("%s: %q does not parse back: %v", name, s, err)
	}
	if !q.Equal(p) {
		t.Fatalf("%s: %q parses back to %q", name, s, q)
	}
	if strings.Contains(s, "^-") {
		t.Fatalf("%s: negative exponent printed: %q", name, s)
	}
}
