package groebner

import (
	"fmt"
	"testing"

	"earth/internal/poly"
)

func TestBuchbergerTextbookExample(t *testing.T) {
	// CLO 2.7 Example 1: I = <x^3-2xy, x^2y-2y^2+x> under grlex.
	// Reduced basis: {x^2, xy, y^2 - x/2}.
	r := poly.NewRing(poly.GrLex{}, "x", "y")
	F := []*poly.Poly{
		r.MustParse("x^3 - 2*x*y"),
		r.MustParse("x^2*y - 2*y^2 + x"),
	}
	b, err := Buchberger(F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsGroebner() {
		t.Fatal("result fails the Buchberger criterion")
	}
	red := b.Reduce()
	want := []string{"x^2", "x*y", "y^2 - 1/2*x"}
	if len(red.Polys) != len(want) {
		t.Fatalf("reduced basis has %d elements: %v", len(red.Polys), red.Polys)
	}
	for i, w := range want {
		if red.Polys[i].String() != w {
			t.Errorf("reduced[%d] = %v, want %v", i, red.Polys[i], w)
		}
	}
}

func TestBuchbergerLinearSystem(t *testing.T) {
	// A linear system's reduced lex basis is its reduced row echelon form:
	// x + y + z = 6, x - y = 0 (i.e. x=y), y - z = -1 =>
	// unique solution x=y=5/3? Let's verify algebraically instead:
	// basis must contain three polys with leads x, y, z.
	r := poly.NewRing(poly.Lex{}, "x", "y", "z")
	F := []*poly.Poly{
		r.MustParse("x + y + z - 6"),
		r.MustParse("x - y"),
		r.MustParse("y - z + 1"),
	}
	b, err := Buchberger(F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	red := b.Reduce()
	if len(red.Polys) != 3 {
		t.Fatalf("basis = %v", red.Polys)
	}
	// Solve: z = y+1; x = y; x+y+z=6 -> 3y+1=6 -> y=5/3.
	wants := []string{"x - 5/3", "y - 5/3", "z - 8/3"}
	for i, w := range wants {
		if red.Polys[i].String() != w {
			t.Errorf("reduced[%d] = %v, want %v", i, red.Polys[i], w)
		}
	}
}

func TestBuchbergerAlreadyGroebner(t *testing.T) {
	// A single polynomial is trivially a Gröbner basis.
	r := poly.NewRing(poly.Lex{}, "x", "y")
	b, err := Buchberger([]*poly.Poly{r.MustParse("x^2*y - 1")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Polys) != 1 || b.Trace.PairsReduced != 0 {
		t.Fatalf("unexpected work: %+v", b.Trace)
	}
}

func TestBuchbergerEmptyInput(t *testing.T) {
	if _, err := Buchberger(nil, Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
	r := poly.NewRing(poly.Lex{}, "x")
	if _, err := Buchberger([]*poly.Poly{r.Zero()}, Options{}); err == nil {
		t.Fatal("all-zero input accepted")
	}
}

func TestBuchbergerIdealMembership(t *testing.T) {
	// The input polynomials reduce to zero modulo the computed basis.
	r := poly.NewRing(poly.GrLex{}, "x", "y", "z")
	F := []*poly.Poly{
		r.MustParse("x*y - z^2 + 1"),
		r.MustParse("y^2 + x - z"),
		r.MustParse("x^2 - y*z"),
	}
	b, err := Buchberger(F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsGroebner() {
		t.Fatal("not a Gröbner basis")
	}
	for i, f := range F {
		if !poly.ReducesToZero(f, b.Polys) {
			t.Errorf("input %d not in ideal of basis", i)
		}
	}
	// And a random combination f0*g + f1*h is too.
	comb := F[0].Mul(r.MustParse("x + 2*z")).Add(F[1].Mul(r.MustParse("y - 1/3")))
	if !poly.ReducesToZero(comb, b.Polys) {
		t.Error("ideal combination not reduced to zero")
	}
}

func TestCriteriaDoNotChangeResult(t *testing.T) {
	r := KatsuraRing(2, poly.Lex{}, 0)
	F := Katsura(2, r)
	ref, err := Buchberger(F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noCrit, err := Buchberger(F, Options{NoCoprimeCriterion: true, NoChainCriterion: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Reduce().Equal(noCrit.Reduce()) {
		t.Fatal("criteria changed the reduced basis")
	}
	if noCrit.Trace.PairsReduced < ref.Trace.PairsReduced {
		t.Fatalf("criteria increased reductions: %d vs %d",
			ref.Trace.PairsReduced, noCrit.Trace.PairsReduced)
	}
	if ref.Trace.PairsSkipped == 0 {
		t.Fatal("criteria never fired on Katsura-2")
	}
}

func TestTraceConsistency(t *testing.T) {
	r := CyclicRing(3, poly.Lex{}, 0)
	b, err := Buchberger(Cyclic(3, r), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Trace
	if tr.PairsReduced+tr.PairsSkipped != tr.PairsCreated {
		t.Fatalf("pair accounting broken: %+v", tr)
	}
	if len(tr.PerReduction) != tr.PairsReduced {
		t.Fatalf("per-reduction records: %d vs %d", len(tr.PerReduction), tr.PairsReduced)
	}
	if tr.Added != len(b.Polys)-3 {
		t.Fatalf("Added = %d, basis grew by %d", tr.Added, len(b.Polys)-3)
	}
	sum := 0
	for _, w := range tr.PerReduction {
		sum += w
	}
	if sum != tr.TermOps {
		t.Fatalf("TermOps %d != sum of per-reduction %d", tr.TermOps, sum)
	}
}

func TestModularBuchbergerMatchesRationalLeads(t *testing.T) {
	// Over a large prime, the reduced basis has the same monomial
	// skeleton (leading monomials) as over Q for a lucky prime.
	rq := CyclicRing(3, poly.Lex{}, 0)
	rp := CyclicRing(3, poly.Lex{}, 32003)
	bq, err := Buchberger(Cyclic(3, rq), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Buchberger(Cyclic(3, rp), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rq1, rp1 := bq.Reduce(), bp.Reduce()
	if len(rq1.Polys) != len(rp1.Polys) {
		t.Fatalf("basis sizes differ: %d vs %d", len(rq1.Polys), len(rp1.Polys))
	}
	for i := range rq1.Polys {
		if !rq1.Polys[i].LeadMono().Equal(rp1.Polys[i].LeadMono()) {
			t.Fatalf("lead %d differs: %v vs %v", i, rq1.Polys[i], rp1.Polys[i])
		}
	}
}

func TestReduceIsCanonical(t *testing.T) {
	// Reduce twice = reduce once; and permuting the input gives the same
	// reduced basis.
	r := KatsuraRing(2, poly.Lex{}, 0)
	F := Katsura(2, r)
	b1, _ := Buchberger(F, Options{})
	perm := []*poly.Poly{F[2], F[0], F[1]}
	b2, _ := Buchberger(perm, Options{})
	r1, r2 := b1.Reduce(), b2.Reduce()
	if !r1.Equal(r2) {
		t.Fatalf("reduced bases differ under input permutation:\n%v\n%v", r1.Polys, r2.Polys)
	}
	if !r1.Reduce().Equal(r1) {
		t.Fatal("Reduce not idempotent")
	}
	if !SameIdeal(r1, b1) {
		t.Fatal("Reduce changed the ideal")
	}
}

func TestSameIdealDetectsDifference(t *testing.T) {
	r := poly.NewRing(poly.Lex{}, "x", "y")
	a, _ := Buchberger([]*poly.Poly{r.MustParse("x")}, Options{})
	b, _ := Buchberger([]*poly.Poly{r.MustParse("y")}, Options{})
	if SameIdeal(a, b) {
		t.Fatal("<x> and <y> reported equal")
	}
	if !SameIdeal(a, a) {
		t.Fatal("ideal not equal to itself")
	}
}

// Cyclic returns the cyclic n-roots system in a ring of n variables:
// for d = 1..n-1 the sum of all cyclic products of d consecutive
// variables, plus x_0...x_{n-1} - 1.
func Cyclic(n int, ring *poly.Ring) []*poly.Poly {
	if ring.N() != n {
		panic(fmt.Sprintf("groebner: Cyclic-%d needs %d variables, ring has %d", n, n, ring.N()))
	}
	var F []*poly.Poly
	for d := 1; d < n; d++ {
		sum := ring.Zero()
		for i := 0; i < n; i++ {
			prod := ring.ConstInt(1)
			for k := 0; k < d; k++ {
				prod = prod.Mul(ring.Var((i + k) % n))
			}
			sum = sum.Add(prod)
		}
		F = append(F, sum)
	}
	prod := ring.ConstInt(1)
	for i := 0; i < n; i++ {
		prod = prod.Mul(ring.Var(i))
	}
	F = append(F, prod.Sub(ring.ConstInt(1)))
	return F
}

// CyclicRing builds the conventional ring for Cyclic-n.
func CyclicRing(n int, ord poly.Order, mod int64) *poly.Ring {
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	if mod == 0 {
		return poly.NewRing(ord, vars...)
	}
	return poly.NewRingMod(ord, mod, vars...)
}
