package poly

import (
	"cmp"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// opaque hides an order's type from packKindFor: a ring built on it never
// packs, so every operation in it runs the generic engine. It is the
// reference the packed engine is compared against.
type opaque struct{ Order }

// packedLayouts lists every order the packer supports at its largest
// arity, plus a small arity each (unused low fields).
var packedLayouts = []struct {
	ord Order
	n   int
}{
	{Lex{}, 8}, {Lex{}, 3},
	{GrLex{}, 7}, {GrLex{}, 3},
	{GRevLex{}, 8}, {GRevLex{}, 3},
}

func modRing(ord Order, n int) *Ring {
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	return NewRingMod(ord, 32003, vars...)
}

// edgeExp draws an exponent that favours the ends of [0, max].
func edgeExp(rng *rand.Rand, max int) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return max
	case 2:
		return max - rng.Intn(2)
	}
	return rng.Intn(max + 1)
}

// randPackable draws a monomial inside the ring's packed range: every
// exponent <= limit for Lex, total degree <= limit for the graded orders.
func randPackable(rng *rand.Rand, r *Ring, limit int) Mono {
	m := NewMono(r.N())
	if r.pack == packLex {
		for i := range m {
			m[i] = edgeExp(rng, limit)
		}
		return m
	}
	for budget := edgeExp(rng, limit); budget > 0; {
		e := 1 + rng.Intn(budget)
		m[rng.Intn(len(m))] += e
		budget -= e
	}
	return m
}

func TestPackedKeysAgreeWithMono(t *testing.T) {
	for _, lay := range packedLayouts {
		r := modRing(lay.ord, lay.n)
		t.Run(fmt.Sprintf("%s/%d", lay.ord.Name(), lay.n), func(t *testing.T) {
			if r.pack == packNone {
				t.Fatal("ring does not pack")
			}
			rng := rand.New(rand.NewSource(int64(lay.n)))
			for iter := 0; iter < 4000; iter++ {
				limit := fieldMax
				if iter%2 == 1 {
					limit = fieldMax / 2 // so that products and lcms fit too
				}
				a, b := randPackable(rng, r, limit), randPackable(rng, r, limit)
				ka, okA := r.packMono(a)
				kb, okB := r.packMono(b)
				if !okA || !okB || (ka|kb)&guardBits != 0 {
					t.Fatalf("in-range monomial rejected: %v %v", a, b)
				}
				back := NewMono(r.N())
				r.unpackMono(ka, back)
				if !back.Equal(a) {
					t.Fatalf("round trip %v -> %#x -> %v", a, ka, back)
				}
				if got, want := cmp.Compare(ka, kb), lay.ord.Compare(a, b); got != want {
					t.Fatalf("compare(%v, %v): keys say %d, order says %d", a, b, got, want)
				}
				kp, okP := r.packMono(a.Mul(b))
				if overflow := (ka+kb)&guardBits != 0; overflow == okP {
					t.Fatalf("product %v*%v: guard bits say overflow=%v, packMono ok=%v", a, b, overflow, okP)
				}
				if okP && ka+kb != kp {
					t.Fatalf("product %v*%v: key sum %#x, packed product %#x", a, b, ka+kb, kp)
				}
				div := wordDivides(r.expWord(ka), r.expWord(kb))
				if div != a.Divides(b) {
					t.Fatalf("divides(%v, %v): words say %v", a, b, div)
				}
				if div {
					if kq, _ := r.packMono(b.Div(a)); kb-ka != kq {
						t.Fatalf("quotient %v/%v: key difference %#x, packed quotient %#x", b, a, kb-ka, kq)
					}
				}
				kl, okL := r.packMono(a.LCM(b))
				if got, ok := r.lcmKey(ka, kb); ok != okL || (ok && got != kl) {
					t.Fatalf("lcm(%v, %v): lcmKey %#x/%v, packed lcm %#x/%v", a, b, got, ok, kl, okL)
				}
			}
			// One past the limit is refused.
			over := NewMono(r.N())
			over[r.N()-1] = fieldMax + 1
			if _, ok := r.packMono(over); ok {
				t.Fatalf("exponent %d accepted", fieldMax+1)
			}
			if r.pack != packLex {
				over[r.N()-1], over[0] = fieldMax, 1
				if _, ok := r.packMono(over); ok {
					t.Fatalf("degree %d accepted", fieldMax+1)
				}
			}
		})
	}
}

func TestRingsThatDoNotPack(t *testing.T) {
	nine := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	for name, r := range map[string]*Ring{
		"over Q":          NewRing(GrLex{}, "x", "y"),
		"9 vars lex":      NewRingMod(Lex{}, 32003, nine...),
		"8 vars grlex":    NewRingMod(GrLex{}, 32003, nine[:8]...),
		"9 vars grevlex":  NewRingMod(GRevLex{}, 32003, nine...),
		"unknown order":   NewRingMod(opaque{GrLex{}}, 32003, "x", "y"),
		"modulus >= 2^32": NewRingMod(GrLex{}, 4294967311, "x", "y"),
	} {
		if r.pack != packNone || r.Var(0).packed() {
			t.Errorf("%s: ring packs", name)
		}
	}
	if r := NewRingMod(GrLex{}, 4294967291, "x", "y"); !r.Var(0).packed() {
		t.Error("largest 32-bit prime does not pack")
	}
}

// twin rebuilds p in ring r (same terms, different ring).
func twin(r *Ring, p *Poly) *Poly { return r.FromTerms(p.Terms()) }

func twins(r *Ring, ps []*Poly) []*Poly {
	out := make([]*Poly, len(ps))
	for i, p := range ps {
		out[i] = twin(r, p)
	}
	return out
}

// byteStream hands out the bytes of a fuzz input, then zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// packedSystem decodes a reduction problem over GF(p) in three variables
// from data: a dividend of up to four terms and up to three divisors of
// up to three terms, exponents 0..3. lift raises one variable of every
// dividend term by up to 124, which takes Lex reductions across the field
// limit part-way and graded dividends out of the packed range from the
// start. Small exponents in the divisors keep the reduction short.
func packedSystem(ord Order, mod int64, lift uint8, data []byte) (r *Ring, f *Poly, G []*Poly) {
	r = NewRingMod(ord, mod, "x", "y", "z")
	s := byteStream(data)
	poly := func(maxTerms int, lifted bool) *Poly {
		ts := make([]Term, 1+s.next()%maxTerms)
		for i := range ts {
			m := Mono{s.next() % 4, s.next() % 4, s.next() % 4}
			if lifted {
				m[int(lift)%3] += int(lift) / 3 * 4 % 128
			}
			ts[i] = Term{Coef: big.NewRat(int64(1+s.next()), 1), Mono: m}
		}
		return r.FromTerms(ts)
	}
	f = poly(4, true)
	for n := 1 + s.next()%3; n > 0; n-- {
		G = append(G, poly(3, false))
	}
	return r, f, G
}

// checkPackedAgainstGeneric runs SPoly, Monic and NormalForm on one system
// in its packing ring and in a twin ring that cannot pack, and requires
// equal polynomials and identical statistics.
func checkPackedAgainstGeneric(t *testing.T, ord Order, mod int64, lift uint8, data []byte) {
	t.Helper()
	r, f, G := packedSystem(ord, mod, lift, data)
	ref := NewRingMod(opaque{ord}, mod, r.Vars()...)
	fRef, GRef := twin(ref, f), twins(ref, G)

	nf, st := NormalForm(f, G)
	nfRef, stRef := NormalForm(fRef, GRef)
	if !nf.Equal(nfRef) || st != stRef {
		t.Fatalf("NormalForm(%v, %v):\n packed  %v %+v\n generic %v %+v", f, G, nf, st, nfRef, stRef)
	}
	for i, g := range G {
		if g.IsZero() {
			continue
		}
		if m, mRef := g.Monic(), GRef[i].Monic(); !m.Equal(mRef) {
			t.Fatalf("Monic(%v): packed %v, generic %v", g, m, mRef)
		}
		if f.IsZero() {
			continue
		}
		if s, sRef := SPoly(f, g), SPoly(fRef, GRef[i]); !s.Equal(sRef) {
			t.Fatalf("SPoly(%v, %v): packed %v, generic %v", f, g, s, sRef)
		}
	}
	// The basis after the usual preparation: monic divisors, so the
	// no-inverse path runs too, through a retained Reducer.
	var monic, monicRef []*Poly
	for i, g := range G {
		if !g.IsZero() {
			monic, monicRef = append(monic, g.Monic()), append(monicRef, GRef[i].Monic())
		}
	}
	var red, redRef Reducer
	for pass := 0; pass < 2; pass++ {
		nf, st = red.NormalForm(f, monic)
		nfRef, stRef = redRef.NormalForm(fRef, monicRef)
		if !nf.Equal(nfRef) || st != stRef {
			t.Fatalf("NormalForm(%v, monic %v):\n packed  %v %+v\n generic %v %+v", f, monic, nf, st, nfRef, stRef)
		}
	}
}

var fuzzOrders = []Order{Lex{}, GrLex{}, GRevLex{}}
var fuzzPrimes = []int64{32003, 7, 4294967291}

func TestPackedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		data := make([]byte, 64)
		rng.Read(data)
		lift := uint8(0)
		if i%3 == 0 {
			lift = uint8(rng.Intn(256))
		}
		checkPackedAgainstGeneric(t, fuzzOrders[i%3], fuzzPrimes[i/3%3], lift, data)
	}
}

// FuzzPackedReduce feeds checkPackedAgainstGeneric byte-derived systems;
// the seed corpus is testdata/fuzz/FuzzPackedReduce.
func FuzzPackedReduce(f *testing.F) {
	f.Fuzz(func(t *testing.T, ord, prime, lift uint8, data []byte) {
		checkPackedAgainstGeneric(t, fuzzOrders[int(ord)%3], fuzzPrimes[int(prime)%3], lift, data)
	})
}

func TestPackedLexOverflowFallsBack(t *testing.T) {
	r := NewRingMod(Lex{}, 32003, "x", "y")
	ref := NewRingMod(opaque{Lex{}}, 32003, "x", "y")

	// x*y^127 -> y^130: the product leaves the field range part-way.
	f, g := r.MustParse("x*y^127 + x + 1"), r.MustParse("x - y^3")
	if !f.packed() || !g.packed() {
		t.Fatal("inputs should pack")
	}
	nf, st := NormalForm(f, []*Poly{g})
	nfRef, stRef := NormalForm(twin(ref, f), []*Poly{twin(ref, g)})
	if nf.packed() || nf.String() != "y^130 + y^3 + 1" {
		t.Fatalf("NormalForm = %v (packed=%v)", nf, nf.packed())
	}
	if !nf.Equal(nfRef) || st != stRef {
		t.Fatalf("fallback diverged: %v %+v vs %v %+v", nf, st, nfRef, stRef)
	}
	// The unpackable result keeps working as dividend and as divisor.
	if again, _ := NormalForm(nf, []*Poly{g}); !again.Equal(nf) {
		t.Fatalf("normal form not idempotent: %v", again)
	}
	if z, _ := NormalForm(nf.Mul(f), []*Poly{nf, g}); !z.IsZero() {
		t.Fatalf("multiple of an unpackable divisor left %v", z)
	}

	// S(x + y^100, y^50 + 1) = y^150 - x: the shifted tail overflows.
	a, b := r.MustParse("x + y^100"), r.MustParse("y^50 + 1")
	s := SPoly(a, b)
	if s.packed() || !s.Equal(SPoly(twin(ref, a), twin(ref, b))) {
		t.Fatalf("SPoly = %v (packed=%v)", s, s.packed())
	}
}

// TestPackedTermsConcurrent reads one packed polynomial from several
// goroutines the way the harness pool's workers share the input systems;
// run under -race.
func TestPackedTermsConcurrent(t *testing.T) {
	r := NewRingMod(GrLex{}, 32003, "x", "y", "z")
	p := r.MustParse("x^3*y + 5*x*y*z + 7*z^2 + 11")
	if !p.packed() {
		t.Fatal("input should pack")
	}
	want := p.String()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				ts := p.Terms()
				ts[0].Coef.SetInt64(99) // a private copy: must not show elsewhere
				ts[0].Mono[0] = 99
				if p.String() != want || !p.LeadMono().Equal(Mono{3, 1, 0}) || p.LeadTerm().Coef.Cmp(big.NewRat(1, 1)) != 0 {
					t.Error("shared polynomial changed under concurrent readers")
					return
				}
				if nf, _ := NormalForm(p, []*Poly{p}); !nf.IsZero() {
					t.Error("p does not reduce to zero modulo itself")
					return
				}
			}
		}()
	}
	wg.Wait()
}
