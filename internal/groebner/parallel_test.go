package groebner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/poly"
	"earth/internal/sim"
)

func k3Input() ([]*poly.Poly, Options) {
	r := KatsuraRing(3, poly.GrLex{}, 32003)
	return Katsura(3, r), Options{NoChainCriterion: true}
}

func TestParallelMatchesSequentialSim(t *testing.T) {
	F, opt := k3Input()
	seq, err := Buchberger(F, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{2, 5, 9} {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 42})
		res, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !res.Basis.IsGroebner() {
			t.Fatalf("nodes=%d: parallel result is not a Gröbner basis", nodes)
		}
		if !SameIdeal(res.Basis, seq) {
			t.Fatalf("nodes=%d: parallel ideal differs from sequential", nodes)
		}
		if !res.Basis.Reduce().Equal(seq.Reduce()) {
			t.Fatalf("nodes=%d: reduced bases differ", nodes)
		}
		if res.PairsProcessed == 0 {
			t.Fatalf("nodes=%d: no pairs processed", nodes)
		}
	}
}

func TestParallelSpeedsUp(t *testing.T) {
	in := InputByName("Katsura-4")
	seq, err := Buchberger(in.F, in.Opt)
	if err != nil {
		t.Fatal(err)
	}
	sc := Calibrate(seq.Trace, in.PaperSeqMS)
	elapsed := map[int]sim.Time{}
	for _, workers := range []int{1, 4, 8} {
		rt := simrt.New(earth.Config{Nodes: workers + 1, Seed: 7})
		res, err := ParallelBuchberger(rt, in.F, ParallelConfig{
			Opt: in.Opt, StepCost: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !SameIdeal(res.Basis, seq) {
			t.Fatalf("workers=%d: wrong ideal", workers)
		}
		elapsed[workers] = res.Stats.Elapsed
	}
	if !(elapsed[4] < elapsed[1] && elapsed[8] < elapsed[4]) {
		t.Fatalf("no speedup: %v", elapsed)
	}
	sp4 := float64(elapsed[1]) / float64(elapsed[4])
	if sp4 < 2 {
		t.Fatalf("4-worker speedup only %.2f", sp4)
	}
}

func TestParallelDistributedQueues(t *testing.T) {
	F, opt := k3Input()
	seq, _ := Buchberger(F, opt)
	rt := simrt.New(earth.Config{Nodes: 5, Seed: 3})
	res, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt, DistributedQueues: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Basis.IsGroebner() {
		t.Fatal("distributed-queue result not a Gröbner basis")
	}
	if !SameIdeal(res.Basis, seq) {
		t.Fatal("distributed-queue ideal differs")
	}
}

func TestParallelNoOrderedCommit(t *testing.T) {
	F, opt := k3Input()
	seq, _ := Buchberger(F, opt)
	rt := simrt.New(earth.Config{Nodes: 5, Seed: 3})
	res, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt, NoOrderedCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !SameIdeal(res.Basis, seq) {
		t.Fatal("unordered-commit ideal differs")
	}
}

func TestParallelDeterministicPerSeed(t *testing.T) {
	F, opt := k3Input()
	run := func(seed int64) (sim.Time, int) {
		rt := simrt.New(earth.Config{Nodes: 4, Seed: seed, JitterPct: 1})
		res, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Elapsed, res.PairsProcessed
	}
	e1, p1 := run(11)
	e2, p2 := run(11)
	if e1 != e2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%v,%d) vs (%v,%d)", e1, p1, e2, p2)
	}
}

func TestParallelIndeterminismAcrossSeeds(t *testing.T) {
	// The paper: parallel completion is intrinsically indeterministic —
	// different schedules process pairs in different orders, changing the
	// amount of work. Different seeds must be able to produce different
	// pair counts or runtimes.
	in := InputByName("Lazard")
	seen := map[sim.Time]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		rt := simrt.New(earth.Config{Nodes: 7, Seed: seed, JitterPct: 2})
		res, err := ParallelBuchberger(rt, in.F, ParallelConfig{Opt: in.Opt})
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Stats.Elapsed] = true
	}
	if len(seen) < 2 {
		t.Fatal("six seeds produced identical runtimes; indeterminism not modelled")
	}
}

func TestParallelOnLiveRuntime(t *testing.T) {
	F, opt := k3Input()
	seq, _ := Buchberger(F, opt)
	rt := livert.New(earth.Config{Nodes: 5, Seed: 2})
	res, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Basis.IsGroebner() {
		t.Fatal("live parallel result not a Gröbner basis")
	}
	if !SameIdeal(res.Basis, seq) {
		t.Fatal("live parallel ideal differs")
	}
}

// quadraticStaircase is the staircase by its definition: every cached
// entry that no other entry makes redundant (see addToStaircase), each
// checked against all the others, in index order.
func quadraticStaircase(n *parNode) []int {
	var out []int
	for i, p := range n.cache {
		if p == nil {
			continue
		}
		redundant := false
		for j, q := range n.cache {
			if q != nil && i != j && n.leads[j].Divides(n.leads[i]) && (!n.leads[i].Equal(n.leads[j]) || j < i) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, i)
		}
	}
	return out
}

// TestStaircaseMatchesQuadraticRule: after every put — indices arriving
// out of order with holes, as broadcasts and Gets deliver them, an index
// put a second time, many equal leads — the staircase kept per put is the
// list the quadratic rule gives, its polynomials are the cache's, and the
// put reports a change exactly when the list moved.
func TestStaircaseMatchesQuadraticRule(t *testing.T) {
	r := poly.NewRingMod(poly.GrLex{}, 32003, "x", "y", "z")
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 400; iter++ {
		size := 1 + rng.Intn(40)
		polys := make([]*poly.Poly, size)
		for i := range polys {
			// Exponents 1..3: 27 leads, so divisions and ties abound.
			polys[i] = r.MustParse(fmt.Sprintf("x^%d*y^%d*z^%d + %d", 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3), i+1))
		}
		order := rng.Perm(size)[:1+rng.Intn(size)] // the rest stay holes
		for k := len(order) / 3; k > 0; k-- {
			order = slices.Insert(order, 1+rng.Intn(len(order)), order[rng.Intn(len(order))])
		}
		n := &parNode{}
		for _, idx := range order {
			before := slices.Clone(n.stair)
			changed := n.cachePut(idx, polys[idx], polys[idx].LeadMono())
			want := quadraticStaircase(n)
			if !slices.Equal(n.stair, want) {
				t.Fatalf("iter %d, after put %d of %v: staircase %v, quadratic rule %v", iter, idx, order, n.stair, want)
			}
			if changed != !slices.Equal(before, n.stair) {
				t.Fatalf("iter %d, after put %d: reported changed=%v, list went %v -> %v", iter, idx, changed, before, n.stair)
			}
			if len(n.staircase) != len(n.stair) {
				t.Fatalf("iter %d: %d polynomials for %d staircase entries", iter, len(n.staircase), len(n.stair))
			}
			for k, j := range n.stair {
				if n.staircase[k] != n.cache[j] {
					t.Fatalf("iter %d: staircase entry %d is not cache entry %d", iter, k, j)
				}
			}
		}
	}
}

func TestParallelEmptyInput(t *testing.T) {
	rt := simrt.New(earth.Config{Nodes: 2, Seed: 1})
	if _, err := ParallelBuchberger(rt, nil, ParallelConfig{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestParallelSingleInputPoly(t *testing.T) {
	r := poly.NewRing(poly.Lex{}, "x", "y")
	rt := simrt.New(earth.Config{Nodes: 3, Seed: 1})
	res, err := ParallelBuchberger(rt, []*poly.Poly{r.MustParse("x^2*y - 1")}, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Basis.Polys) != 1 || res.PairsProcessed != 0 {
		t.Fatalf("unexpected result: %d polys, %d pairs", len(res.Basis.Polys), res.PairsProcessed)
	}
}

func TestCalibrate(t *testing.T) {
	tr := Trace{PairsReduced: 10, TermOps: 1000}
	sc := Calibrate(tr, 100)
	// 100ms minus 10 pairs x 200us overhead = 98ms over 1000 ops.
	if sc.PerTermOp != 98*sim.Microsecond {
		t.Fatalf("PerTermOp = %v", sc.PerTermOp)
	}
	// Calibration is exact: the modelled sequential time equals the paper time.
	if got := SeqVirtualTime(tr, sc); got != sim.FromMilliseconds(100) {
		t.Fatalf("calibrated SeqVirtualTime = %v, want 100ms", got)
	}
	if Calibrate(Trace{}, 100) != DefaultStepCost() {
		t.Fatal("zero trace should fall back to default")
	}
	v := SeqVirtualTime(tr, sc)
	want := 10*sc.PerPair + 1000*sc.PerTermOp
	if v != want {
		t.Fatalf("SeqVirtualTime = %v, want %v", v, want)
	}
}

func TestMeanPolyBytes(t *testing.T) {
	r := poly.NewRing(poly.Lex{}, "x")
	ps := []*poly.Poly{r.MustParse("x + 1"), r.MustParse("x^2")}
	// x+1: 2 terms * 12; x^2: 1 term * 12 -> mean 18.
	if got := MeanPolyBytes(ps); got != 18 {
		t.Fatalf("MeanPolyBytes = %d", got)
	}
	if MeanPolyBytes(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestParallelMPModelsSlower(t *testing.T) {
	// Figure 5's mechanism: identical program, inflated communication.
	in := InputByName("Lazard")
	seq, _ := Buchberger(in.F, in.Opt)
	sc := Calibrate(seq.Trace, in.PaperSeqMS)
	run := func(costs earth.CostModel) sim.Time {
		rt := simrt.New(earth.Config{Nodes: 7, Seed: 5, Costs: costs})
		res, err := ParallelBuchberger(rt, in.F, ParallelConfig{Opt: in.Opt, StepCost: sc})
		if err != nil {
			t.Fatal(err)
		}
		if !SameIdeal(res.Basis, seq) {
			t.Fatalf("%s: wrong ideal", costs.Name)
		}
		return res.Stats.Elapsed
	}
	earthT := run(earth.EARTHCosts())
	mpT := run(earth.MessagePassingCosts(1000 * sim.Microsecond))
	if mpT <= earthT {
		t.Fatalf("MP-1000us (%v) not slower than EARTH (%v)", mpT, earthT)
	}
}

// TestStopRuleOverBooks holds finished, the maintenance node's stop rule,
// to the rule DESIGN.md §4a.3 states, over every combination of the books
// of two workers — waiting, reducing, a request outstanding — with the
// insert queue empty or not and a pair left or not: in the central pool,
// or, in distributed mode, created and not yet reported processed. The
// rule: stop exactly when no insert is queued, no pair is left, and every
// worker waits with nothing in flight and nothing outstanding. A request
// bounced back for re-reduction is in no book, so no row can hold one:
// that window is ROADMAP 7(b), whose fix moves a -json digit and is its
// own change.
func TestStopRuleOverBooks(t *testing.T) {
	const workers = 2
	for _, distributed := range []bool{false, true} {
		for row := range 1 << (3*workers + 2) {
			bit := func(k int) bool { return row>>k&1 == 1 }
			st := &parState{
				cfg:     ParallelConfig{DistributedQueues: distributed},
				workers: workers,
				pool:    &pairHeap{},
				books:   make([]workerBook, workers),
			}
			parked, busy := 0, 0
			for w := range st.books {
				b := &st.books[w]
				b.waiting, b.reducing = bit(3*w), bit(3*w+1)
				if bit(3*w + 2) {
					b.outstand = 1
				}
				b.processed = 2 + w
				st.created += b.processed
				if b.waiting {
					parked++
				}
				if b.reducing || b.outstand > 0 {
					busy++
				}
			}
			queued, left := bit(3*workers), bit(3*workers+1)
			if queued {
				st.insertQ = make([]insertReq, 1)
			}
			if left && distributed {
				st.created++
			} else if left {
				st.pool.push(Pair{})
			}
			want := parked == workers && busy == 0 && !queued && !left
			if got := st.finished(); got != want {
				t.Errorf("distributed=%v %+v insertQ=%d pool=%d created=%d: finished() = %v, want %v",
					distributed, st.books, len(st.insertQ), st.pool.len(), st.created, got, want)
			}
		}
	}
}
