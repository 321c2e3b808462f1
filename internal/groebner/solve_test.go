package groebner

import (
	"math"
	"testing"

	"earth/internal/poly"
)

func TestSolveCircleParabola(t *testing.T) {
	// x^2 + y^2 = 5, y = x^2 - 1: y solves y^2 + y - 4 = 0,
	// y = (-1 ± sqrt(17))/2; only y = (-1+sqrt(17))/2 gives real x
	// (y >= -1), with x = ±sqrt(y+1).
	ring := poly.NewRing(poly.Lex{}, "x", "y")
	F := []*poly.Poly{
		ring.MustParse("x^2 + y^2 - 5"),
		ring.MustParse("x^2 - y - 1"),
	}
	sols, err := Solve(F)
	if err != nil {
		t.Fatal(err)
	}
	yGood := (-1 + math.Sqrt(17)) / 2
	xGood := math.Sqrt(yGood + 1)
	if len(sols) != 2 {
		t.Fatalf("got %d solutions, want 2: %+v", len(sols), sols)
	}
	for _, s := range sols {
		if math.Abs(s.X[1]-yGood) > 1e-7 {
			t.Errorf("y = %v, want %v", s.X[1], yGood)
		}
		if math.Abs(math.Abs(s.X[0])-xGood) > 1e-7 {
			t.Errorf("|x| = %v, want %v", math.Abs(s.X[0]), xGood)
		}
		if s.Residual > 1e-6 {
			t.Errorf("residual %v too large", s.Residual)
		}
	}
}

func TestSolveLinearSystem(t *testing.T) {
	ring := poly.NewRing(poly.Lex{}, "x", "y", "z")
	F := []*poly.Poly{
		ring.MustParse("x + y + z - 6"),
		ring.MustParse("x - y"),
		ring.MustParse("y - z + 1"),
	}
	sols, err := Solve(F)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("solutions = %+v", sols)
	}
	want := []float64{5.0 / 3, 5.0 / 3, 8.0 / 3}
	for i := range want {
		if math.Abs(sols[0].X[i]-want[i]) > 1e-9 {
			t.Fatalf("X = %v, want %v", sols[0].X, want)
		}
	}
}

func TestSolveNoRealRoots(t *testing.T) {
	ring := poly.NewRing(poly.Lex{}, "x")
	F := []*poly.Poly{ring.MustParse("x^2 + 1")}
	sols, err := Solve(F)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Fatalf("x^2+1 has real solutions? %+v", sols)
	}
}

func TestSolveUnivariateQuintic(t *testing.T) {
	// (x-1)(x-2)(x+3) * (x^2+1) = 0: real roots 1, 2, -3.
	ring := poly.NewRing(poly.Lex{}, "x")
	f := ring.MustParse("x - 1").
		Mul(ring.MustParse("x - 2")).
		Mul(ring.MustParse("x + 3")).
		Mul(ring.MustParse("x^2 + 1"))
	sols, err := Solve([]*poly.Poly{f})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-3, 1, 2}
	if len(sols) != 3 {
		t.Fatalf("got %d roots: %+v", len(sols), sols)
	}
	for i, s := range sols {
		if math.Abs(s.X[0]-want[i]) > 1e-7 {
			t.Fatalf("root %d = %v, want %v", i, s.X[0], want[i])
		}
	}
}

func TestSolveKatsura2(t *testing.T) {
	// Katsura-2 over Q with lex: small zero-dimensional system; verify
	// every returned solution satisfies the original equations.
	r := KatsuraRing(2, poly.Lex{}, 0)
	F := Katsura(2, r)
	sols, err := Solve(F)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) == 0 {
		t.Fatal("Katsura-2 has real solutions (e.g. u = (1,0,0))")
	}
	for _, s := range sols {
		if s.Residual > 1e-6 {
			t.Fatalf("residual %v at %v", s.Residual, s.X)
		}
	}
	// The trivial solution u0=1, u1=u2=0 must be among them.
	found := false
	for _, s := range sols {
		if math.Abs(s.X[0]-1) < 1e-6 && math.Abs(s.X[1]) < 1e-6 && math.Abs(s.X[2]) < 1e-6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("trivial Katsura solution missing: %+v", sols)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	grev := poly.NewRing(poly.GRevLex{}, "x", "y")
	if _, err := Solve([]*poly.Poly{grev.MustParse("x + y")}); err == nil {
		t.Fatal("non-lex ring accepted")
	}
	mod := poly.NewRingMod(poly.Lex{}, 7, "x")
	if _, err := Solve([]*poly.Poly{mod.MustParse("x + 1")}); err == nil {
		t.Fatal("modular ring accepted")
	}
	if _, err := Solve(nil); err == nil {
		t.Fatal("empty system accepted")
	}
	// Positive-dimensional: a single polynomial in two variables.
	lex := poly.NewRing(poly.Lex{}, "x", "y")
	if _, err := Solve([]*poly.Poly{lex.MustParse("x*y - 1")}); err == nil {
		t.Fatal("positive-dimensional system accepted")
	}
}

func TestSturmChainRootCounting(t *testing.T) {
	// u = (x-1)(x+2) = x^2 + x - 2.
	ring := poly.NewRing(poly.Lex{}, "x")
	u, ok := toUnivariate(ring.MustParse("x^2 + x - 2"), 0)
	if !ok {
		t.Fatal("not univariate")
	}
	roots := u.realRoots(1e-9)
	if len(roots) != 2 || math.Abs(roots[0]+2) > 1e-7 || math.Abs(roots[1]-1) > 1e-7 {
		t.Fatalf("roots = %v", roots)
	}
}

func TestRealRootsMultipleRoot(t *testing.T) {
	// (x-1)^2: Sturm counts distinct roots; expect the single root 1.
	ring := poly.NewRing(poly.Lex{}, "x")
	u, _ := toUnivariate(ring.MustParse("x^2 - 2*x + 1"), 0)
	roots := u.realRoots(1e-9)
	if len(roots) != 1 || math.Abs(roots[0]-1) > 1e-6 {
		t.Fatalf("roots = %v", roots)
	}
}

func TestRealRootsRationalExactHit(t *testing.T) {
	// Root exactly at a dyadic midpoint of the search: x = 0.
	ring := poly.NewRing(poly.Lex{}, "x")
	u, _ := toUnivariate(ring.MustParse("x^3 - 4*x"), 0) // roots -2, 0, 2
	roots := u.realRoots(1e-9)
	if len(roots) != 3 {
		t.Fatalf("roots = %v", roots)
	}
	for i, w := range []float64{-2, 0, 2} {
		if math.Abs(roots[i]-w) > 1e-7 {
			t.Fatalf("roots = %v", roots)
		}
	}
}
