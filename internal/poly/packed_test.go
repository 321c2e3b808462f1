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
		if p != nil {
			out[i] = twin(r, p)
		}
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
	// The same system with what a caller may leave in a basis: a nil and a
	// zero entry, the dividend itself, a divisor twice.
	awkward := append(append([]*Poly{nil, r.Zero()}, G...), f, G[0])
	nf, st = NormalForm(f, awkward)
	nfRef, stRef = NormalForm(fRef, twins(ref, awkward))
	if !nf.Equal(nfRef) || st != stRef {
		t.Fatalf("NormalForm(%v, %v):\n packed  %v %+v\n generic %v %+v", f, awkward, nf, st, nfRef, stRef)
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

// refNormalForm is the packed reduction as first written, kept as the
// oracle of the divisor table and of the residue arithmetic: every popped
// monomial is tested against every lead and the divisor with the fewest
// terms kept, first wins; residues are taken with %. It returns the normal
// form, the statistics and, step by step, the monomial eliminated and the
// divisor chosen. No key may leave the packed range.
func refNormalForm(f *Poly, G []*Poly) (nf *Poly, st ReduceStats, popped []uint64, chosen []*Poly) {
	ring := f.ring
	p := uint64(ring.modInt)
	ws := map[uint64]uint64{}
	for i, k := range f.keys {
		ws[k] = uint64(f.coefs[i])
	}
	nf = &Poly{ring: ring}
	for len(ws) > 0 {
		var m uint64
		for k := range ws {
			m = max(m, k)
		}
		c := ws[m]
		delete(ws, m)
		if c == 0 {
			continue
		}
		var g *Poly
		for _, l := range G {
			if l != nil && len(l.keys) > 0 && wordDivides(ring.expWord(l.keys[0]), ring.expWord(m)) &&
				(g == nil || len(l.keys) < len(g.keys)) {
				g = l
			}
		}
		if g == nil {
			nf.keys, nf.coefs = append(nf.keys, m), append(nf.coefs, uint32(c))
			st.TermOps++
			continue
		}
		popped, chosen = append(popped, m), append(chosen, g)
		inv := new(big.Int).ModInverse(big.NewInt(int64(g.coefs[0])), ring.mod).Uint64()
		q := c * inv % p
		for j, k := range g.keys[1:] {
			k += m - g.keys[0]
			if k&guardBits != 0 {
				panic("refNormalForm: key out of range")
			}
			ws[k] = (ws[k] + p - q*uint64(g.coefs[j+1])%p) % p
		}
		st.Steps++
		st.TermOps += len(g.keys)
	}
	return nf, st, popped, chosen
}

// divisorChoiceSystem draws a dividend and a basis built to make the
// divisor rule bite: few variables and low exponents (most leads divide
// most monomials), term counts drawn from {1, 2, 3} so that several
// divisors tie, and, now and then, a nil entry, a zero entry, an entry
// repeated, a second divisor with an earlier one's lead, and the dividend
// itself.
func divisorChoiceSystem(rng *rand.Rand, r *Ring) (f *Poly, G []*Poly) {
	poly := func(terms int) *Poly {
		ts := make([]Term, terms)
		for i := range ts {
			ts[i] = Term{Coef: big.NewRat(int64(1+rng.Intn(32002)), 1), Mono: randMono(rng, r.N(), 3)}
		}
		return r.FromTerms(ts)
	}
	f = poly(1 + rng.Intn(6))
	for n := 2 + rng.Intn(8); n > 0; n-- {
		switch rng.Intn(8) {
		case 0:
			G = append(G, nil)
		case 1:
			G = append(G, r.Zero())
		case 2:
			G = append(G, f)
		default:
			g := poly(1 + rng.Intn(3))
			G = append(G, g)
			if !g.IsZero() && rng.Intn(4) == 0 { // the same lead again, another tail
				lead := r.newPoly([]Term{g.LeadTerm()})
				G = append(G, lead.Add(poly(1+rng.Intn(2)).MulTerm(big.NewRat(1, 1), NewMono(r.N()))))
			}
			if rng.Intn(6) == 0 {
				G = append(G, g)
			}
		}
	}
	return f, G
}

// TestDivisorTableMatchesFullScan holds the sorted first-hit table to the
// rule it replaces — fewest terms, first wins — at every step of random
// reductions under all three orders, and the three engines (table,
// reference, generic) to one result and one set of statistics.
func TestDivisorTableMatchesFullScan(t *testing.T) {
	for _, ord := range fuzzOrders {
		r := NewRingMod(ord, 32003, "x", "y", "z")
		ref := NewRingMod(opaque{ord}, 32003, "x", "y", "z")
		rng := rand.New(rand.NewSource(23))
		var red Reducer
		steps, ties := 0, 0
		for iter := 0; iter < 600; iter++ {
			f, G := divisorChoiceSystem(rng, r)
			want, wantSt, popped, chosen := refNormalForm(f, G)
			got, gotSt := red.NormalForm(f, G)
			if !got.Equal(want) || gotSt != wantSt {
				t.Fatalf("%s: NormalForm(%v, %v)\n table     %v %+v\n full scan %v %+v", ord.Name(), f, G, got, gotSt, want, wantSt)
			}
			gen, genSt := NormalForm(twin(ref, f), twins(ref, G))
			if !got.Equal(gen) || gotSt != genSt {
				t.Fatalf("%s: NormalForm(%v, %v)\n packed  %v %+v\n generic %v %+v", ord.Name(), f, G, got, gotSt, gen, genSt)
			}
			w := &red.packed
			w.setDivisors(G)
			for i, m := range popped {
				if g := w.divisor(r.expWord(m)); g != chosen[i] {
					t.Fatalf("%s: step %d of NormalForm(%v, %v): table picks %v, full scan %v", ord.Name(), i, f, G, g, chosen[i])
				}
				for _, l := range G {
					if l != nil && l != chosen[i] && len(l.keys) == len(chosen[i].keys) && wordDivides(r.expWord(l.keys[0]), r.expWord(m)) {
						ties++
						break
					}
				}
			}
			steps += len(popped)
			w.dropDivisors()
		}
		if steps < 500 || ties < steps/10 {
			t.Fatalf("%s: %d steps, %d of them with a tie on term count: the generator no longer exercises the rule", ord.Name(), steps, ties)
		}
	}
}

// checkReduceMod compares modulus.reduce with % on the product a*b.
func checkReduceMod(t *testing.T, m modulus, a, b uint64) {
	t.Helper()
	if got, want := m.reduce(a*b), a*b%m.p; got != want {
		t.Fatalf("reduce(%d*%d) mod %d = %d, want %d", a, b, m.p, got, want)
	}
}

var reduceModPrimes = []uint64{2, 3, 32003, 65521, 1<<31 - 1, 4294967291}

func TestReduceModMatchesDivision(t *testing.T) {
	for p := uint64(2); p <= 257; p++ {
		if !new(big.Int).SetUint64(p).ProbablyPrime(0) {
			continue
		}
		m := newModulus(p)
		for a := uint64(0); a < p; a++ {
			for b := uint64(0); b < p; b++ {
				checkReduceMod(t, m, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for _, p := range reduceModPrimes {
		m := NewRingMod(Lex{}, int64(p), "x").modp
		if m != newModulus(p) {
			t.Fatalf("ring modulo %d carries %+v", p, m)
		}
		corners := []uint64{0, 1, p - 2, p - 1}
		for _, a := range corners {
			for _, b := range corners {
				checkReduceMod(t, m, a, b)
			}
		}
		for i := 0; i < 1e6; i++ {
			checkReduceMod(t, m, rng.Uint64()%p, rng.Uint64()%p)
		}
		// Any 64-bit operand reduces, not only a product of residues.
		for _, x := range []uint64{0, p, p - 1, 2*p - 1, 1<<64 - 1, 1 << 63} {
			if got := m.reduce(x); got != x%p {
				t.Fatalf("reduce(%d) mod %d = %d, want %d", x, p, got, x%p)
			}
		}
		for a := uint64(1); a < min(p, 50); a++ {
			if inv := m.inverse(uint32(a)); a*inv%p != 1 {
				t.Fatalf("inverse(%d) mod %d = %d", a, p, inv)
			}
		}
	}
}

// FuzzReduceMod holds modulus.reduce to % for residues of the primes above.
func FuzzReduceMod(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(1))
	f.Add(uint8(5), uint64(4294967290), uint64(4294967290))
	f.Add(uint8(4), uint64(1<<31-2), uint64(1<<31-2))
	f.Fuzz(func(t *testing.T, prime uint8, a, b uint64) {
		p := reduceModPrimes[int(prime)%len(reduceModPrimes)]
		checkReduceMod(t, newModulus(p), a%p, b%p)
	})
}

// TestPackedHeapPopsDescend pushes distinct keys in random order — guard
// bits set in some, as between an overflowing step and its bail-out — and
// requires the pops to descend strictly and return every key.
func TestPackedHeapPopsDescend(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, size := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64, 209, 1000, 10000} {
		var w packedWorkspace
		seen := map[uint64]bool{}
		for len(seen) < size {
			k := rng.Uint64() >> uint(rng.Intn(3)) // top bit — a guard bit — in half of them
			if !seen[k] {
				seen[k] = true
				w.push(k)
			}
		}
		// Every third pop is followed by a push below it, as a reduction
		// step adds monomials below the one it eliminates.
		for pops, prev := 0, uint64(0); len(w.heap) > 0; pops++ {
			k := w.pop()
			if pops > 0 && k >= prev {
				t.Fatalf("size %d: popped %#x after %#x", size, k, prev)
			}
			if !seen[k] {
				t.Fatalf("size %d: popped %#x, which is not in the heap", size, k)
			}
			delete(seen, k)
			prev = k
			if below := k / 2; pops%3 == 0 && below > 0 && !seen[below] {
				seen[below] = true
				w.push(below)
			}
		}
		if len(seen) != 0 {
			t.Fatalf("size %d: heap empty with %d keys never popped", size, len(seen))
		}
	}
}

// reducePair is Reduce of the pair (f, g) modulo G on red.
func reducePair(red *Reducer, f, g *Poly, G []*Poly) (*Poly, ReduceStats) {
	red.SetBasis(G)
	return red.Reduce(f, g)
}

// TestReducePairMatchesSPolyThenNormalForm: Reduce of a pair is NormalForm
// after SPoly — result and statistics — on the packed engine, on the
// generic one, across the overflow fallback and for an S-polynomial that
// is zero; and it refuses operands of two rings as SPoly does.
func TestReducePairMatchesSPolyThenNormalForm(t *testing.T) {
	check := func(name string, f, g *Poly, G []*Poly) {
		t.Helper()
		var one, two Reducer
		for pass := 0; pass < 2; pass++ { // the second on a warm workspace
			got, gotSt := reducePair(&one, f, g, G)
			want, wantSt := two.NormalForm(SPoly(f, g), G)
			if !got.Equal(want) || gotSt != wantSt {
				t.Fatalf("%s: Reduce(%v, %v) modulo %v = %v %+v, want %v %+v", name, f, g, G, got, gotSt, want, wantSt)
			}
		}
	}
	rng := rand.New(rand.NewSource(37))
	for _, ord := range fuzzOrders {
		for _, r := range []*Ring{
			NewRingMod(ord, 32003, "x", "y", "z"),         // packed
			NewRingMod(opaque{ord}, 32003, "x", "y", "z"), // generic, GF(p)
			NewRing(ord, "x", "y", "z"),                   // generic, Q
		} {
			for iter := 0; iter < 60; iter++ {
				f, G := divisorChoiceSystem(rng, r)
				g := G[len(G)-1]
				if g == nil || g.IsZero() {
					continue
				}
				check(ord.Name(), f, g, G)
			}
			p := r.MustParse("x^2*y + 3*z + 1")
			check("S-polynomial zero", p, p, []*Poly{r.MustParse("z^2 + 1")})
		}
	}

	// S(x^2 + x*y^127, x^2 + 1) = x*y^127 - 1 is in range; reducing it by
	// x - y^3 makes y^130, which is not: the step bails out and the generic
	// engine redoes the pair. Then an S-polynomial out of range from the
	// start.
	r := NewRingMod(Lex{}, 32003, "x", "y")
	f, g, h := r.MustParse("x^2 + x*y^127"), r.MustParse("x^2 + 1"), r.MustParse("x - y^3")
	check("overflow in the reduction", f, g, []*Poly{h})
	if nf, _ := reducePair(NewReducer(), f, g, []*Poly{h}); nf.packed() || nf.String() != "y^130 + 32002" {
		t.Fatalf("Reduce(%v, %v) modulo [%v] = %v (packed=%v)", f, g, h, nf, nf.packed())
	}
	check("overflow in the S-polynomial", r.MustParse("x + y^100"), r.MustParse("y^50 + 1"), []*Poly{h})

	defer func() {
		if recover() == nil {
			t.Fatal("Reduce on polynomials of two rings did not panic")
		}
	}()
	other := NewRingMod(Lex{}, 32003, "x", "y")
	NewReducer().Reduce(f, other.MustParse("x + 1"))
}

// TestReducePairAllocatesOnlyItsResult: on a warm workspace a packed
// Reduce of a pair allocates the normal form — the Poly and its two
// slices — and nothing when that is zero, with the divisor table kept or
// rebuilt after SetBasis; and a Reducer at rest refers to no polynomial,
// so one kept in a pool pins no basis.
func TestReducePairAllocatesOnlyItsResult(t *testing.T) {
	r := NewRingMod(GrLex{}, 32003, "x", "y", "z")
	rng := rand.New(rand.NewSource(41))
	f, g := randPoly(r, rng, 24, 8), randPoly(r, rng, 24, 8)
	G := []*Poly{randPoly(r, rng, 6, 4), randPoly(r, rng, 6, 4), randPoly(r, rng, 6, 4)}
	red := NewReducer()
	if nf, _ := reducePair(red, f, g, G); nf.IsZero() || !nf.packed() {
		t.Fatalf("Reduce = %v: want a nonzero packed normal form", nf)
	}
	if n := testing.AllocsPerRun(50, func() { red.Reduce(f, g) }); n > 3 {
		t.Errorf("Reduce allocates %v objects per call, want <= 3", n)
	}
	// A rebuild after SetBasis fills the storage the table had.
	if n := testing.AllocsPerRun(50, func() { red.SetBasis(G); red.Reduce(f, g) }); n > 3 {
		t.Errorf("SetBasis then Reduce allocates %v objects per call, want <= 3", n)
	}
	// Coprime leads: {f, g} is a Gröbner basis and S(f, g) reduces to zero
	// over several steps.
	f, g = r.MustParse("x^3 + y*z + 1"), r.MustParse("y^2 + z + 5")
	G = []*Poly{f, g}
	if nf, st := reducePair(red, f, g, G); !nf.IsZero() || st.Steps < 2 {
		t.Fatalf("Reduce(%v, %v) modulo both = %v after %d steps", f, g, nf, st.Steps)
	}
	if n := testing.AllocsPerRun(50, func() { red.Reduce(f, g) }); n != 0 {
		t.Errorf("Reduce to zero allocates %v objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { red.SetBasis(G); red.Reduce(f, g) }); n != 0 {
		t.Errorf("SetBasis then Reduce to zero allocates %v objects per call, want 0", n)
	}
	red.SetBasis(nil)
	for _, d := range red.packed.divs[:cap(red.packed.divs)] {
		if d != nil {
			t.Fatalf("Reducer at rest still refers to divisor %v", d)
		}
	}
}
