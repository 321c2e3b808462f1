package groebner

import (
	"math/rand"
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/poly"
)

// pairOf builds the pair appendNewPairs would build for an LCM.
func pairOf(r *poly.Ring, lcm poly.Mono, seq int) Pair {
	p := Pair{LCM: lcm, Seq: seq}
	p.key, p.keyed = r.OrderKey(lcm)
	return p
}

// TestPairLessKeyedMatchesOrder: comparing keys is comparing LCMs under the
// ring's order, Seq tie-break included; a pair without a key sends the
// comparison back to Order.Compare; a ring that does not pack never keys.
func TestPairLessKeyedMatchesOrder(t *testing.T) {
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	rng := rand.New(rand.NewSource(43))
	for _, ord := range []poly.Order{poly.Lex{}, poly.GrLex{}, poly.GRevLex{}} {
		r := poly.NewRingMod(ord, 32003, vars[:5]...)
		for iter := 0; iter < 5000; iter++ {
			a, b := make(poly.Mono, 5), make(poly.Mono, 5)
			for v := range a {
				a[v] = rng.Intn(4)
				b[v] = a[v]
				if rng.Intn(3) == 0 { // mostly close: ties and near-ties
					b[v] = rng.Intn(4)
				}
			}
			p, q := pairOf(r, a, rng.Intn(3)), pairOf(r, b, rng.Intn(3))
			if !p.keyed || !q.keyed {
				t.Fatalf("%s: in-range LCMs %v, %v not keyed", ord.Name(), a, b)
			}
			bare := func(p Pair) Pair { return Pair{LCM: p.LCM, Seq: p.Seq} }
			want := bare(p).Less(bare(q), ord)
			for name, got := range map[string]bool{
				"keyed":         p.Less(q, ord),
				"left unkeyed":  bare(p).Less(q, ord),
				"right unkeyed": p.Less(bare(q), ord),
			} {
				if got != want {
					t.Fatalf("%s: Less(%v#%d, %v#%d) %s = %v, Order.Compare says %v", ord.Name(), a, p.Seq, b, q.Seq, name, got, want)
				}
			}
		}
		for name, r := range map[string]*poly.Ring{
			"over Q":      poly.NewRing(ord, vars[:5]...),
			"9 variables": poly.NewRingMod(ord, 32003, vars...),
		} {
			if p := pairOf(r, make(poly.Mono, r.N()), 0); p.keyed {
				t.Errorf("%s, %s: pair is keyed", ord.Name(), name)
			}
		}
		// An LCM beyond the packed range stays unkeyed in a packing ring.
		if p := pairOf(r, poly.Mono{200, 0, 0, 0, 0}, 0); p.keyed {
			t.Errorf("%s: exponent 200 keyed", ord.Name())
		}
	}
}

// TestSelectBestIgnoresSetOrder: the pairs the Updater creates for a paper
// input are keyed, and selectBest draws them from a shuffled set in the
// order sortPairs gives.
func TestSelectBestIgnoresSetOrder(t *testing.T) {
	in := InputByName("Katsura-4")
	ord := in.F[0].Ring().Order()
	u := NewUpdater(in.Opt)
	var P []Pair
	for j := range in.F {
		P, _, _ = u.Update(in.F[:j+1], P)
	}
	if len(P) < 5 {
		t.Fatalf("only %d initial pairs", len(P))
	}
	for _, p := range P {
		if !p.keyed {
			t.Fatalf("pair (%d,%d) of a packing ring is not keyed", p.I, p.J)
		}
	}
	sorted := append([]Pair(nil), P...)
	sortPairs(sorted, ord)
	rand.New(rand.NewSource(47)).Shuffle(len(P), func(i, j int) { P[i], P[j] = P[j], P[i] })
	for _, want := range sorted {
		var got Pair
		got, P = selectBest(P, ord)
		if got.I != want.I || got.J != want.J || got.Seq != want.Seq {
			t.Fatalf("selectBest drew (%d,%d)#%d, sorted order has (%d,%d)#%d", got.I, got.J, got.Seq, want.I, want.J, want.Seq)
		}
	}
}

// TestConcurrentRunsShareNoWorkspace runs completions side by side, one on
// each engine, each drawing its reducers from the package pool and handing
// them back for the next round; run under -race. The simrt result is held
// to the sequential basis; the livert one only to having run, because a
// livert completion can stop one polynomial short (ROADMAP, "termination
// with a bounced request outstanding" — TestParallelOnLiveRuntime's rare
// failure), which is not what this test is about.
func TestConcurrentRunsShareNoWorkspace(t *testing.T) {
	F, opt := k3Input()
	seq, err := Buchberger(F, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Reduce()
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for _, rt := range []earth.Runtime{
			simrt.New(earth.Config{Nodes: 5, Seed: int64(round)}),
			livert.New(earth.Config{Nodes: 5, Seed: int64(round)}),
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt})
				if err != nil {
					t.Errorf("round %d, %T: %v", round, rt, err)
					return
				}
				if res.PairsProcessed == 0 {
					t.Errorf("round %d, %T: no pair processed", round, rt)
				}
				if _, sim := rt.(*simrt.Runtime); sim && !res.Basis.Reduce().Equal(want) {
					t.Errorf("round %d: reduced basis differs from the sequential one", round)
				}
			}()
		}
		wg.Wait()
	}
}
