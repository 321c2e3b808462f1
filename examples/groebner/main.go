// Gröbner example: solve a system of nonlinear equations — the paper's
// motivating use of Gröbner bases ("applications in solving systems of
// nonlinear equations"). A lexicographic basis triangularises the system
// like Gaussian elimination does for linear ones; the univariate last
// polynomial can then be solved and back-substituted.
//
// System: the intersection of a circle and a parabola,
//
//	x^2 + y^2 = 5
//	y = x^2 - 1
//
// The lex basis eliminates x, leaving a univariate polynomial in y.
package main

import (
	"fmt"
	"io"
	"math/big"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/groebner"
	"earth/internal/poly"
)

func main() { run(os.Stdout) }

// run is the example, printing to w.
func run(w io.Writer) {
	ring := poly.NewRing(poly.Lex{}, "x", "y")
	F := []*poly.Poly{
		ring.MustParse("x^2 + y^2 - 5"),
		ring.MustParse("x^2 - y - 1"),
	}
	b, err := groebner.Buchberger(F, groebner.Options{})
	if err != nil {
		panic(err)
	}
	red := b.Reduce()
	fmt.Fprintln(w, "reduced lex Gröbner basis (triangular form):")
	for _, g := range red.Polys {
		fmt.Fprintln(w, "  ", g)
	}
	// The last basis element is univariate in y: y^2 + y - 4 = 0 here;
	// verify that y = 2 satisfies... it does not — check exact roots via
	// evaluation instead: every input polynomial must vanish on any
	// common root. Check the rational candidate points of the basis.
	fmt.Fprintln(w, "\nverifying ideal membership: inputs reduce to zero modulo the basis:")
	for i, f := range F {
		fmt.Fprintf(w, "  input %d reduces to zero: %v\n", i, poly.ReducesToZero(f, red.Polys))
	}

	// The same computation on the EARTH runtime, 6 workers + maintenance.
	rt := simrt.New(earth.Config{Nodes: 7, Seed: 1})
	res, err := groebner.ParallelBuchberger(rt, F, groebner.ParallelConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "\nparallel run: %d pairs processed, ideals agree: %v\n",
		res.PairsProcessed, groebner.SameIdeal(res.Basis, b))

	// The true solutions have y solving y^2 + y - 4 = 0 (irrational), so
	// no rational point is a common root. Exact evaluation shows the
	// point (1,2) lies on the circle but not on the parabola:
	at := []*big.Rat{big.NewRat(1, 1), big.NewRat(2, 1)}
	fmt.Fprintf(w, "\ncircle(1,2) = %v, parabola(1,2) = %v -> not a common root\n",
		F[0].Eval(at), F[1].Eval(at))

	// Finish the pipeline the paper motivates: solve the triangular set.
	sols, err := groebner.Solve(F)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "\nreal solutions (via Sturm root isolation + back-substitution):")
	for _, s := range sols {
		fmt.Fprintf(w, "  x = %+.6f, y = %+.6f   (residual %.1e)\n", s.X[0], s.X[1], s.Residual)
	}
}
