package groebner

import (
	"fmt"
	"math/big"
	"slices"
	"sync"

	"earth/internal/poly"
)

// This file generates the paper's input systems. Katsura-n is a standard
// generated benchmark. The exact "Lazard" input file used in
// 1997 is not recoverable; Lazard() builds a 3-polynomial lex system whose
// completion profile (tasks, additions, polynomial sizes) matches the
// characteristics published in Table 2 — see DESIGN.md's substitution
// table.

// Katsura returns the Katsura-n system: n+1 variables u0..un and n+1
// equations
//
//	sum_{l=-n..n} u_l u_{m-l} = u_m        (m = 0..n-1)
//	u_0 + 2 sum_{l=1..n} u_l = 1
//
// with u_{-l} = u_l and u_l = 0 for |l| > n. Katsura-4 and Katsura-5 are
// the paper's larger Gröbner inputs (5 and 6 input polynomials).
func Katsura(n int, ring *poly.Ring) []*poly.Poly {
	if ring.N() != n+1 {
		panic(fmt.Sprintf("groebner: Katsura-%d needs %d variables, ring has %d", n, n+1, ring.N()))
	}
	u := func(l int) *poly.Poly {
		if l < 0 {
			l = -l
		}
		if l > n {
			return ring.Zero()
		}
		return ring.Var(l)
	}
	var F []*poly.Poly
	for m := 0; m < n; m++ {
		sum := ring.Zero()
		for l := -n; l <= n; l++ {
			sum = sum.Add(u(l).Mul(u(m - l)))
		}
		F = append(F, sum.Sub(u(m)))
	}
	lin := ring.Var(0)
	for l := 1; l <= n; l++ {
		lin = lin.Add(ring.Var(l).MulScalar(big.NewRat(2, 1)))
	}
	F = append(F, lin.Sub(ring.ConstInt(1)))
	return F
}

// KatsuraRing builds the conventional ring for Katsura-n (variables
// u0..un) over Q (mod == 0) or GF(mod).
func KatsuraRing(n int, ord poly.Order, mod int64) *poly.Ring {
	vars := make([]string, n+1)
	for i := range vars {
		vars[i] = fmt.Sprintf("u%d", i)
	}
	if mod == 0 {
		return poly.NewRing(ord, vars...)
	}
	return poly.NewRingMod(ord, mod, vars...)
}

// Lazard returns the reconstructed "Lazard" input: 3 polynomials in 3
// variables under the ring's order (the paper used total lex order).
func Lazard(ring *poly.Ring) []*poly.Poly {
	if ring.N() != 3 {
		panic("groebner: Lazard needs a 3-variable ring")
	}
	return []*poly.Poly{
		ring.MustParse("x^2*y*z + x*y^2*z + y^2*z^2 - x*y - z"),
		ring.MustParse("x^2*y^2 + y^2*z + x*z^2 - y*z - 1"),
		ring.MustParse("x*y^2 + y*z^2 + x^2 - y - z"),
	}
}

// LazardRing builds the 3-variable ring for the Lazard system.
func LazardRing(ord poly.Order, mod int64) *poly.Ring {
	if mod == 0 {
		return poly.NewRing(ord, "x", "y", "z")
	}
	return poly.NewRingMod(ord, mod, "x", "y", "z")
}

// NamedInput describes one of the paper's benchmark inputs with the
// configuration the harness runs it under.
type NamedInput struct {
	Name string
	Ring *poly.Ring
	F    []*poly.Poly
	// Opt is the completion configuration the harness runs this input
	// under (paper-era Buchberger: coprime criterion only).
	Opt Options
	// PaperSeqMS etc. carry Table 2's published values for EXPERIMENTS.md
	// comparisons.
	PaperSeqMS     float64
	PaperTasks     int
	PaperInput     int
	PaperAdded     int
	PaperStepMS    float64
	PaperPolyBytes int
}

// PaperInputs returns the three Table 2 inputs in their harness
// configurations. The paper ran all three "in total lexicographic order";
// we read that as total-degree lexicographic (grlex), which reproduces
// Table 2's solution-set sizes (e.g. Katsura-4 adds exactly 15
// polynomials), where pure lex yields hundreds of additions. Coefficients
// are GF(32003) — the standard device for bounding coefficient growth —
// and pair elimination uses the coprime criterion only, matching the task
// counts of the era's Buchberger implementations. See DESIGN.md.
//
// The systems are built once per process and shared ("Inputs are built
// once" in DESIGN.md): rings and polynomials are immutable, and each call
// returns a slice of its own whose F is capacity-clipped, so a caller's
// append cannot write into the shared systems.
func PaperInputs() []NamedInput {
	ins := slices.Clone(paperInputs())
	for i := range ins {
		ins[i].F = slices.Clip(ins[i].F)
	}
	return ins
}

// paperInputs is the one build of buildPaperInputs; a test may swap it
// for a fresh one.
var paperInputs = sync.OnceValue(buildPaperInputs)

func buildPaperInputs() []NamedInput {
	opt := Options{NoChainCriterion: true}
	lr := LazardRing(poly.GrLex{}, 32003)
	k4r := KatsuraRing(4, poly.GrLex{}, 32003)
	k5r := KatsuraRing(5, poly.GrLex{}, 32003)
	return []NamedInput{
		{
			Name: "Lazard", Ring: lr, F: Lazard(lr), Opt: opt,
			PaperSeqMS: 3761, PaperTasks: 141, PaperInput: 3, PaperAdded: 27,
			PaperStepMS: 26.7, PaperPolyBytes: 454,
		},
		{
			Name: "Katsura-4", Ring: k4r, F: Katsura(4, k4r), Opt: opt,
			PaperSeqMS: 6373, PaperTasks: 75, PaperInput: 5, PaperAdded: 15,
			PaperStepMS: 85, PaperPolyBytes: 439,
		},
		{
			Name: "Katsura-5", Ring: k5r, F: Katsura(5, k5r), Opt: opt,
			PaperSeqMS: 362750, PaperTasks: 168, PaperInput: 6, PaperAdded: 26,
			PaperStepMS: 111.86, PaperPolyBytes: 3243,
		},
	}
}

// InputByName resolves "lazard", "katsura-4" or "katsura-5" (case as
// given); nil for unknown names.
func InputByName(name string) *NamedInput {
	for _, in := range PaperInputs() {
		if in.Name == name || lower(in.Name) == lower(name) {
			in := in
			return &in
		}
	}
	return nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
