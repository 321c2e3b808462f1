package poly

import (
	"math/big"
	"math/rand"
	"testing"
)

// keptTableRing is ring k of FuzzKeptTable: a packing ring, a GF(p) ring
// and a Q ring that never pack, under each of the three orders.
func keptTableRing(k int) *Ring {
	ord := fuzzOrders[k%3]
	switch k / 3 % 3 {
	case 0:
		return NewRingMod(ord, 32003, "x", "y", "z")
	case 1:
		return NewRingMod(opaque{ord}, 32003, "x", "y", "z")
	}
	return NewRing(ord, "x", "y", "z")
}

// checkKeptTable runs the basis changes and reductions data spells out on
// one Reducer, which keeps its divisor table from one reduction to the
// next and hears of every change through SetBasis, and holds each
// reduction to the one-shot form on a fresh Reducer — NormalForm of the
// dividend, or of SPoly(f, g) for a pair — result and statistics alike,
// and ReduceMonic to that normal form made monic, with the same
// statistics.
// The basis grows, loses and replaces entries in place and shrinks, as no
// completion does, so that a table kept past a change cannot go unseen.
// lift raises one variable of the dividends it marks as packedSystem does,
// which takes Lex reductions across the field limit part-way: the packed
// engine bails out and the generic one redoes the reduction, on a Reducer
// whose table must then serve the next reduction as before. At the end
// the Reducer is put to rest and must refer to no polynomial.
func checkKeptTable(t *testing.T, ring, lift uint8, data []byte) {
	t.Helper()
	r := keptTableRing(int(ring))
	s := byteStream(data)
	poly := func(lifted bool) *Poly {
		ts := make([]Term, 1+s.next()%3)
		for i := range ts {
			m := Mono{s.next() % 4, s.next() % 4, s.next() % 4}
			if lifted {
				m[int(lift)%3] += int(lift) / 3 * 4 % 128
			}
			ts[i] = Term{Coef: big.NewRat(int64(1+s.next()), 1), Mono: m}
		}
		return r.FromTerms(ts)
	}
	var kept Reducer
	var G []*Poly
	kept.SetBasis(G)
	check := func(what string, got, want *Poly, gotSt, wantSt ReduceStats) {
		t.Helper()
		if !got.Equal(want) || gotSt != wantSt {
			t.Fatalf("%s modulo %v:\n kept table %v %+v\n one-shot   %v %+v", what, G, got, gotSt, want, wantSt)
		}
	}
	// monic is what ReduceMonic must return for normal form p.
	monic := func(p *Poly) *Poly {
		if p.IsZero() {
			return p
		}
		return p.Monic()
	}
	for ops := 0; len(s) > 0 && ops < 48; ops++ {
		switch s.next() % 6 {
		case 0, 1: // admit a divisor
			G = append(G, poly(false))
			kept.SetBasis(G)
		case 2: // drop an entry, or put another in its place
			if len(G) == 0 {
				continue
			}
			i := s.next() % len(G)
			if s.next()%2 == 0 {
				G[i] = nil
			} else {
				G[i] = poly(false)
			}
			kept.SetBasis(G)
		case 3: // shrink, so that later admissions overwrite entries
			G = G[:s.next()%(len(G)+1)]
			kept.SetBasis(G)
		case 4:
			f := poly(s.next()%2 == 0)
			got, gotSt := kept.Reduce(f, nil)
			want, wantSt := NormalForm(f, G)
			check("Reduce("+f.String()+")", got, want, gotSt, wantSt)
			got, gotSt = kept.ReduceMonic(f, nil)
			check("ReduceMonic("+f.String()+")", got, monic(want), gotSt, wantSt)
		case 5: // a pair: a dividend and a divisor, or two dividends
			f, g := poly(s.next()%2 == 0), poly(s.next()%2 == 0)
			if i := s.next(); i < 128 && len(G) > 0 && G[i%len(G)] != nil {
				g = G[i%len(G)]
			}
			if f.IsZero() || g.IsZero() {
				continue
			}
			got, gotSt := kept.Reduce(f, g)
			want, wantSt := NormalForm(SPoly(f, g), G)
			check("Reduce("+f.String()+", "+g.String()+")", got, want, gotSt, wantSt)
			got, gotSt = kept.ReduceMonic(f, g)
			check("ReduceMonic("+f.String()+", "+g.String()+")", got, monic(want), gotSt, wantSt)
		}
	}
	kept.SetBasis(nil)
	for _, d := range kept.packed.divs[:cap(kept.packed.divs)] {
		if d != nil {
			t.Fatalf("Reducer at rest still refers to divisor %v", d)
		}
	}
	if kept.basis != nil {
		t.Fatalf("Reducer at rest still refers to a basis of %d entries", len(kept.basis))
	}
}

// TestKeptTableMatchesOneShot runs checkKeptTable on random inputs in
// every ring, a third of them lifted, and walks one Lex Reducer through a
// fallback with its table kept.
func TestKeptTableMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 900; i++ {
		data := make([]byte, 160)
		rng.Read(data)
		lift := uint8(0)
		if i%3 == 0 {
			lift = uint8(rng.Intn(256))
		}
		checkKeptTable(t, uint8(i%9), lift, data)
	}

	// x*y^127 -> y^130 leaves the packed range part-way; the next dividend
	// stays inside it and must still find the table.
	r := NewRingMod(Lex{}, 32003, "x", "y")
	G := []*Poly{r.MustParse("x - y^3")}
	var red Reducer
	red.SetBasis(G)
	for _, src := range []string{"x*y^127 + x + 1", "x^2*y + x + 5", "x*y^127 + x + 1"} {
		f := r.MustParse(src)
		got, gotSt := red.Reduce(f, nil)
		want, wantSt := NormalForm(f, G)
		if !got.Equal(want) || gotSt != wantSt || gotSt.Steps == 0 {
			t.Fatalf("Reduce(%s) modulo %v = %v %+v, one-shot %v %+v", src, G, got, gotSt, want, wantSt)
		}
	}
	if !red.built || len(red.packed.divs) != 1 {
		t.Fatalf("table built=%v with %d divisors after the fallback, want kept with 1", red.built, len(red.packed.divs))
	}
}

// FuzzKeptTable feeds checkKeptTable byte-derived operations.
func FuzzKeptTable(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 1, 2, 1, 1, 3, 0, 1, 0, 2, 0, 0, 4, 0, 3, 2, 1, 1, 5, 1, 1, 200})
	f.Add(uint8(3), uint8(94), []byte{1, 2, 0, 1, 2, 1, 0, 3, 4, 1, 2, 2, 3, 1, 5, 0, 1, 1, 1, 0, 0, 0, 2, 1, 4})
	f.Add(uint8(7), uint8(0), []byte{0, 0, 1, 1, 3, 5, 0, 2, 2, 0, 2, 3, 1, 1, 2, 4, 0, 1, 1, 1, 2, 9, 5, 0, 0})
	f.Fuzz(func(t *testing.T, ring, lift uint8, data []byte) {
		checkKeptTable(t, ring, lift, data)
	})
}
