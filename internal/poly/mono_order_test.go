package poly

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randMono(rng *rand.Rand, n, maxExp int) Mono {
	m := NewMono(n)
	for i := range m {
		m[i] = rng.Intn(maxExp + 1)
	}
	return m
}

func TestMonoBasics(t *testing.T) {
	m := Mono{2, 0, 3}
	if m.TotalDeg() != 5 {
		t.Errorf("TotalDeg = %d", m.TotalDeg())
	}
	c := m.Clone()
	c[0] = 99
	if m[0] != 2 {
		t.Error("Clone aliases")
	}
}

func TestMonoMulDivLCM(t *testing.T) {
	a := Mono{2, 1, 0}
	b := Mono{1, 3, 2}
	if got := a.Mul(b); !got.Equal(Mono{3, 4, 2}) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.LCM(b); !got.Equal(Mono{2, 3, 2}) {
		t.Errorf("LCM = %v", got)
	}
	if !a.Divides(a.Mul(b)) {
		t.Error("a does not divide a*b")
	}
	if a.Divides(Mono{1, 1, 1}) {
		t.Error("bogus divisibility")
	}
	if got := a.Mul(b).Div(a); !got.Equal(b) {
		t.Errorf("Div = %v", got)
	}
}

func TestMonoDivPanicsOnInexact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Mono{1, 0}.Div(Mono{0, 1})
}

func TestMonoArityMismatchPanics(t *testing.T) {
	ops := []func(){
		func() { Mono{1}.Mul(Mono{1, 2}) },
		func() { Mono{1}.Divides(Mono{1, 2}) },
		func() { Mono{1}.LCM(Mono{1, 2}) },
		func() { Mono{1}.Coprime(Mono{1, 2}) },
	}
	for i, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("op %d did not panic", i)
				}
			}()
			op()
		}()
	}
}

func TestCoprime(t *testing.T) {
	if !(Mono{1, 0, 2}).Coprime(Mono{0, 3, 0}) {
		t.Error("disjoint supports not coprime")
	}
	if (Mono{1, 0}).Coprime(Mono{1, 1}) {
		t.Error("shared variable reported coprime")
	}
}

func TestMulDivRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randMono(rng, 4, 6), randMono(rng, 4, 6)
		p := a.Mul(b)
		return p.Div(a).Equal(b) && p.Div(b).Equal(a) && a.Divides(p) && b.Divides(p)
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatal("mul/div round trip failed")
		}
	}
}

func TestLCMPropertyDivisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b := randMono(rng, 5, 8), randMono(rng, 5, 8)
		l := a.LCM(b)
		if !a.Divides(l) || !b.Divides(l) {
			t.Fatal("LCM not a common multiple")
		}
		// a*b / lcm is the gcd (componentwise min), a common divisor.
		if g := a.Mul(b).Div(l); !g.Divides(a) || !g.Divides(b) {
			t.Fatal("a*b/lcm not a common divisor")
		}
	}
}

// Order axioms, checked for each order: totality/antisymmetry,
// compatibility with multiplication, and 1 as least element.
func TestOrderAxioms(t *testing.T) {
	orders := []Order{Lex{}, GrLex{}, GRevLex{}}
	rng := rand.New(rand.NewSource(3))
	for _, ord := range orders {
		t.Run(ord.Name(), func(t *testing.T) {
			one := NewMono(4)
			for i := 0; i < 300; i++ {
				a := randMono(rng, 4, 5)
				b := randMono(rng, 4, 5)
				c := randMono(rng, 4, 5)
				// Antisymmetry and consistency with Equal.
				ab, ba := ord.Compare(a, b), ord.Compare(b, a)
				if ab != -ba {
					t.Fatalf("Compare not antisymmetric: %v %v", a, b)
				}
				if (ab == 0) != a.Equal(b) {
					t.Fatalf("Compare==0 disagrees with Equal: %v %v", a, b)
				}
				// Multiplicative compatibility: a<b => ac < bc.
				if ab != ord.Compare(a.Mul(c), b.Mul(c)) {
					t.Fatalf("not multiplication-compatible: %v %v %v", a, b, c)
				}
				// 1 is least.
				if !a.Equal(one) && ord.Compare(a, one) != 1 {
					t.Fatalf("1 not least: %v", a)
				}
				// Transitivity spot check.
				bc := ord.Compare(b, c)
				if ab >= 0 && bc >= 0 && ord.Compare(a, c) < 0 {
					t.Fatalf("not transitive: %v %v %v", a, b, c)
				}
			}
		})
	}
}

func TestLexOrderKnownCases(t *testing.T) {
	// x > y^9 under lex with x before y.
	if (Lex{}).Compare(Mono{1, 0}, Mono{0, 9}) != 1 {
		t.Error("lex: x should beat y^9")
	}
	// Under grlex, degree dominates.
	if (GrLex{}).Compare(Mono{1, 0}, Mono{0, 9}) != -1 {
		t.Error("grlex: y^9 should beat x")
	}
	// grevlex: x*y^2 vs x^2*y: same degree; last differing variable is y:
	// smaller exponent wins, so x^2*y > x*y^2.
	if (GRevLex{}).Compare(Mono{2, 1}, Mono{1, 2}) != 1 {
		t.Error("grevlex: x^2*y should beat x*y^2")
	}
}

func TestGrevlexDiffersFromGrlex(t *testing.T) {
	// Classic discriminating pair in 3 vars: a = x*z^2, b = y^3.
	// deg 3 both. grlex: compare lex: x beats y => a > b.
	// grevlex: last differing var z: a has 2, b has 0 => a < b.
	a, b := Mono{1, 0, 2}, Mono{0, 3, 0}
	if (GrLex{}).Compare(a, b) != 1 {
		t.Error("grlex disagrees with expectation")
	}
	if (GRevLex{}).Compare(a, b) != -1 {
		t.Error("grevlex disagrees with expectation")
	}
}

func TestWellOrderingProperty(t *testing.T) {
	// Property: strictly dividing monomials are strictly smaller in every
	// admissible order.
	f := func(rawA, rawB [3]uint8) bool {
		a := Mono{int(rawA[0] % 5), int(rawA[1] % 5), int(rawA[2] % 5)}
		extra := Mono{int(rawB[0]%3) + 1, int(rawB[1] % 3), int(rawB[2] % 3)}
		big := a.Mul(extra)
		for _, ord := range []Order{Lex{}, GrLex{}, GRevLex{}} {
			if ord.Compare(a, big) != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
