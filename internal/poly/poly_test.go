package poly

import (
	"math/big"
	"math/rand"
	"testing"
)

func testRing() *Ring { return NewRing(Lex{}, "x", "y", "z") }

func randPoly(r *Ring, rng *rand.Rand, maxTerms, maxExp int) *Poly {
	n := rng.Intn(maxTerms + 1)
	ts := make([]Term, 0, n)
	for i := 0; i < n; i++ {
		c := big.NewRat(int64(rng.Intn(21)-10), int64(rng.Intn(5)+1))
		ts = append(ts, Term{Coef: c, Mono: randMono(rng, r.N(), maxExp)})
	}
	return r.FromTerms(ts)
}

func TestRingConstruction(t *testing.T) {
	r := testRing()
	if r.N() != 3 {
		t.Errorf("N = %d", r.N())
	}
	if r.VarIndex("y") != 1 || r.VarIndex("q") != -1 {
		t.Error("VarIndex broken")
	}
	if got := r.Vars(); got[0] != "x" || len(got) != 3 {
		t.Errorf("Vars = %v", got)
	}
	if r.Order().Name() != "lex" {
		t.Error("order not retained")
	}
}

func TestRingRejectsBadVars(t *testing.T) {
	for _, vars := range [][]string{{}, {"x", "x"}, {""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%v) did not panic", vars)
				}
			}()
			NewRing(Lex{}, vars...)
		}()
	}
}

func TestZeroAndConst(t *testing.T) {
	r := testRing()
	z := r.Zero()
	if !z.IsZero() || z.NumTerms() != 0 || z.String() != "0" {
		t.Error("zero polynomial malformed")
	}
	if !r.Const(new(big.Rat)).IsZero() {
		t.Error("Const(0) not zero")
	}
	c := r.ConstInt(5)
	if c.IsZero() || c.LeadCoef().Cmp(big.NewRat(5, 1)) != 0 || c.LeadMono().TotalDeg() != 0 {
		t.Error("ConstInt(5) malformed")
	}
}

func TestLeadTermOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	testRing().Zero().LeadTerm()
}

func TestTermsSortedDescendingInvariant(t *testing.T) {
	r := testRing()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := randPoly(r, rng, 12, 5)
		ts := p.Terms()
		for j := 1; j < len(ts); j++ {
			if r.Order().Compare(ts[j-1].Mono, ts[j].Mono) != 1 {
				t.Fatalf("terms not strictly descending: %v", p)
			}
		}
		for _, tm := range ts {
			if tm.Coef.Sign() == 0 {
				t.Fatalf("zero coefficient retained: %v", p)
			}
		}
	}
}

func TestRingLawsProperty(t *testing.T) {
	r := testRing()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		a := randPoly(r, rng, 6, 4)
		b := randPoly(r, rng, 6, 4)
		c := randPoly(r, rng, 6, 4)
		if !a.Add(b).Equal(b.Add(a)) {
			t.Fatal("+ not commutative")
		}
		if !a.Mul(b).Equal(b.Mul(a)) {
			t.Fatal("* not commutative")
		}
		if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
			t.Fatal("+ not associative")
		}
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			t.Fatal("* not associative")
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			t.Fatal("* does not distribute over +")
		}
		if !a.Sub(a).IsZero() {
			t.Fatal("a - a != 0")
		}
		if !a.Add(a.Neg()).IsZero() {
			t.Fatal("a + (-a) != 0")
		}
		if !a.Mul(r.ConstInt(1)).Equal(a) {
			t.Fatal("1 not multiplicative identity")
		}
		if !a.Mul(r.Zero()).IsZero() {
			t.Fatal("a*0 != 0")
		}
		if !a.Add(r.Zero()).Equal(a) {
			t.Fatal("0 not additive identity")
		}
	}
}

func TestLeadTermMultiplicativeProperty(t *testing.T) {
	// lt(f*g) = lt(f)*lt(g) over an integral domain.
	r := testRing()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 80; i++ {
		a := randPoly(r, rng, 5, 4)
		b := randPoly(r, rng, 5, 4)
		if a.IsZero() || b.IsZero() {
			continue
		}
		p := a.Mul(b)
		if p.IsZero() {
			t.Fatal("product of nonzero polys is zero")
		}
		if !p.LeadMono().Equal(a.LeadMono().Mul(b.LeadMono())) {
			t.Fatal("lm(fg) != lm(f)lm(g)")
		}
		want := new(big.Rat).Mul(a.LeadCoef(), b.LeadCoef())
		if p.LeadCoef().Cmp(want) != 0 {
			t.Fatal("lc(fg) != lc(f)lc(g)")
		}
	}
}

func TestMonic(t *testing.T) {
	r := testRing()
	p := r.MustParse("3*x^2 - 6*y")
	m := p.Monic()
	if m.LeadCoef().Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("not monic")
	}
	if !m.MulScalar(big.NewRat(3, 1)).Equal(p) {
		t.Fatal("Monic changed the polynomial beyond scaling")
	}
}

func TestImmutability(t *testing.T) {
	r := testRing()
	a := r.MustParse("x + y")
	b := r.MustParse("x - y")
	snapshot := a.String()
	_ = a.Add(b)
	_ = a.Mul(b)
	_ = a.Neg()
	_ = a.Monic()
	_ = a.MulTerm(big.NewRat(7, 2), Mono{1, 1, 1})
	if a.String() != snapshot {
		t.Fatalf("operations mutated receiver: %s -> %s", snapshot, a)
	}
}

func TestMixedRingPanics(t *testing.T) {
	r1, r2 := testRing(), testRing()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r1.ConstInt(1).Add(r2.ConstInt(1))
}

func TestStringRendering(t *testing.T) {
	r := testRing()
	cases := map[string]string{
		"x":               "x",
		"-x":              "-x",
		"x + y":           "x + y",
		"x - y":           "x - y",
		"2*x^2*y - 1/2*z": "2*x^2*y - 1/2*z",
		"x - 1":           "x - 1",
		"0":               "0",
	}
	for in, want := range cases {
		p, err := r.Parse(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		if got := p.String(); got != want {
			t.Errorf("String(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	r := testRing()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		p := randPoly(r, rng, 8, 5)
		q, err := r.Parse(p.String())
		if p.IsZero() {
			// "0" parses to zero.
			if err != nil || !q.IsZero() {
				t.Fatalf("zero round trip: %v %v", q, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if !q.Equal(p) {
			t.Fatalf("round trip %q -> %q", p, q)
		}
	}
}

func TestParseErrors(t *testing.T) {
	r := testRing()
	bad := []string{"", "+x", "x +", "q", "x^-1", "2x", "x^", "1/", "x * * y", "x^1/2"}
	for _, s := range bad {
		if _, err := r.Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

func TestEval(t *testing.T) {
	r := testRing()
	p := r.MustParse("x^2*y - 2*z + 1/2")
	at := []*big.Rat{big.NewRat(2, 1), big.NewRat(3, 1), big.NewRat(1, 4)}
	// 4*3 - 2*(1/4) + 1/2 = 12
	if got := p.Eval(at); got.Cmp(big.NewRat(12, 1)) != 0 {
		t.Fatalf("Eval = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	p.Eval(at[:2])
}

func TestBytesModel(t *testing.T) {
	r := testRing()
	p := r.MustParse("x + y + z")
	if p.Bytes() != 3*(8+12) {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
	if r.Zero().Bytes() != 0 {
		t.Fatal("zero Bytes != 0")
	}
}

func TestMulTermZeroCoef(t *testing.T) {
	r := testRing()
	p := r.MustParse("x + y")
	if !p.MulTerm(new(big.Rat), NewMono(3)).IsZero() {
		t.Fatal("MulTerm by 0 not zero")
	}
}

func TestFromTermsMergesDuplicates(t *testing.T) {
	r := testRing()
	m := Mono{1, 0, 0}
	p := r.FromTerms([]Term{
		{Coef: big.NewRat(2, 1), Mono: m},
		{Coef: big.NewRat(3, 1), Mono: m},
		{Coef: new(big.Rat), Mono: Mono{0, 1, 0}},
	})
	if p.NumTerms() != 1 || p.LeadCoef().Cmp(big.NewRat(5, 1)) != 0 {
		t.Fatalf("FromTerms = %v", p)
	}
}
