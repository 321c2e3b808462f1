package groebner

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
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

// TestPairHeapIgnoresSetOrder: the pairs the Updater creates for a paper
// input are keyed, and a heap over a shuffled set of them — pushed one by
// one, or the whole slice put in order by init, as Buchberger does after
// each Update — gives them up in the order a sort by Less gives.
func TestPairHeapIgnoresSetOrder(t *testing.T) {
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
	sorted := slices.Clone(P)
	slices.SortFunc(sorted, func(p, q Pair) int {
		switch {
		case p.Less(q, ord):
			return -1
		case q.Less(p, ord):
			return 1
		}
		return 0
	})
	rand.New(rand.NewSource(47)).Shuffle(len(P), func(i, j int) { P[i], P[j] = P[j], P[i] })
	pushed := pairHeap{ord: ord}
	for _, p := range P {
		pushed.push(p)
	}
	inited := pairHeap{ord: ord, ps: slices.Clone(P)}
	inited.init()
	for _, want := range sorted {
		for name, h := range map[string]*pairHeap{"push": &pushed, "init": &inited} {
			if got := h.pop(); got.I != want.I || got.J != want.J || got.Seq != want.Seq {
				t.Fatalf("%s: heap drew (%d,%d)#%d, sorted order has (%d,%d)#%d", name, got.I, got.J, got.Seq, want.I, want.J, want.Seq)
			}
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

// scanBest removes and returns the best pair of P by a linear scan under
// Less: the reference the pair heap is held to.
func scanBest(P []Pair, ord poly.Order) (Pair, []Pair) {
	best := 0
	for i := range P {
		if P[i].Less(P[best], ord) {
			best = i
		}
	}
	p := P[best]
	return p, slices.Delete(P, best, best+1)
}

// TestPairHeapMatchesLinearScan: the pair heap gives up pairs in the
// order a linear scan by Less does, on random sets mixing keyed and
// unkeyed pairs, ties on the LCM included, under every use the completion
// makes of it, interleaved: pushes and pops (the central pool, a worker's
// queue); the slice filtered in place and appended to, then init (the
// sequential set after each Update); and the best half donated by pops
// (the ring).
func TestPairHeapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, ord := range []poly.Order{poly.Lex{}, poly.GrLex{}, poly.GRevLex{}} {
		r := poly.NewRingMod(ord, 32003, "a", "b", "c", "d")
		for iter := 0; iter < 200; iter++ {
			size := 1 + rng.Intn(60)
			seqs := rng.Perm(4 * size) // no two pairs of a run share a Seq
			newPair := func() Pair {
				lcm := make(poly.Mono, 4)
				for v := range lcm {
					lcm[v] = rng.Intn(3)
				}
				seq := seqs[0]
				seqs = seqs[1:]
				if rng.Intn(3) == 0 {
					return Pair{LCM: lcm, Seq: seq}
				}
				return pairOf(r, lcm, seq)
			}
			h := pairHeap{ord: ord}
			var P []Pair
			pop := func(use string) {
				var want Pair
				want, P = scanBest(P, ord)
				if got := h.pop(); got.Seq != want.Seq {
					t.Fatalf("%s, %s: heap gave #%d %v, the scan #%d %v", ord.Name(), use, got.Seq, got.LCM, want.Seq, want.LCM)
				}
			}
			for range size {
				p := newPair()
				h.push(p)
				P = append(P, p)
				for rng.Intn(3) == 0 && len(P) > 0 {
					pop("pop")
				}
				switch rng.Intn(8) {
				case 0:
					drop := func(p Pair) bool { return p.Seq%3 == 0 }
					h.ps = slices.DeleteFunc(h.ps, drop)
					P = slices.DeleteFunc(P, drop)
					for range rng.Intn(4) {
						p := newPair()
						h.ps = append(h.ps, p)
						P = append(P, p)
					}
					h.init()
				case 1:
					for range h.len() / 2 {
						pop("donation")
					}
				}
			}
			for len(P) > 0 {
				pop("drain")
			}
			if h.len() != 0 {
				t.Fatalf("%s: %d pairs left in the heap", ord.Name(), h.len())
			}
		}
	}
}

// TestNewPairsForSeqUnique: the parallel completion numbers its pairs by
// (index, partner), and no two of them share a Seq past index 1000 either
// — (1001, 1000) and (1002, 0) among them — so Pair.Less stays a strict
// total order.
func TestNewPairsForSeqUnique(t *testing.T) {
	r := poly.NewRingMod(poly.GrLex{}, 32003, "x", "y")
	basis := make([]*poly.Poly, 1003)
	for i := range basis {
		basis[i] = r.MustParse(fmt.Sprintf("x*y + %d", i+1))
	}
	st := &parState{upd: NewUpdater(Options{NoCoprimeCriterion: true, NoChainCriterion: true})}
	seen := map[int][2]int{}
	for _, idx := range []int{1, 2, 999, 1000, 1001, 1002} {
		pairs := st.newPairsFor(basis, idx)
		if len(pairs) != idx {
			t.Fatalf("index %d: %d pairs, want one per earlier entry", idx, len(pairs))
		}
		for _, p := range pairs {
			if q, dup := seen[p.Seq]; dup {
				t.Fatalf("pairs (%d, %d) and (%d, %d) share Seq %d", q[1], q[0], p.J, p.I, p.Seq)
			}
			seen[p.Seq] = [2]int{p.I, p.J}
		}
	}
}

// refersToRun reports whether v reaches a polynomial, a frame or a
// closure through pointers, structs, arrays, slices (to their capacity),
// maps and interfaces: what a run would leave pinned. An outbox record's
// body is not walked: it is the one closure a listed record keeps, and
// lettersAtRest checks that it serves its own record. Nor is an outbox's
// record list, which recordsAtRest checks.
func refersToRun(v reflect.Value, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Func:
		return !v.IsNil()
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if t := v.Type(); t == reflect.TypeFor[*poly.Poly]() || t == reflect.TypeFor[*earth.Frame]() {
			return true
		}
		if seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		return refersToRun(v.Elem(), seen)
	case reflect.Interface:
		return !v.IsNil() && refersToRun(v.Elem(), seen)
	case reflect.Struct:
		for i := range v.NumField() {
			if name := v.Type().Field(i).Name; v.Type() == letterType && name == "body" || v.Type() == outboxType && name == "src" {
				continue
			}
			if refersToRun(v.Field(i), seen) {
				return true
			}
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
			return false // no pointers
		}
		for i := range v.Len() {
			if refersToRun(v.Index(i), seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if refersToRun(it.Key(), seen) || refersToRun(it.Value(), seen) {
				return true
			}
		}
	}
	return false
}

// letterType is the outbox records' type, and outboxType the outboxes'.
var (
	letterType = reflect.TypeFor[earth.Letter[msg]]()
	outboxType = reflect.TypeFor[earth.Outbox[msg]]()
)

// zeroToCap reports whether v is zero but for the capacity of its slices,
// whose elements must be zero up to it and whose length must be 0.
func zeroToCap(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() > 0 {
			return false
		}
		v = v.Slice(0, v.Cap())
		for i := range v.Len() {
			if !zeroToCap(v.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range v.NumField() {
			if !zeroToCap(v.Field(i)) {
				return false
			}
		}
		return true
	}
	return v.IsZero()
}

// outboxEmpty checks that ws's outbox, at rest, holds no record: its
// blocks went back to letters.
func outboxEmpty(ws *parNode) error {
	out := reflect.ValueOf(&ws.out).Elem()
	if n := out.FieldByName("n").Int(); n != 0 {
		return fmt.Errorf("%d records still in use", n)
	}
	if blocks := out.FieldByName("blocks"); !zeroToCap(blocks) {
		return fmt.Errorf("%d blocks kept", blocks.Len())
	}
	return nil
}

// recordsAtRest checks the record list with enginetest.LettersAtRest —
// every argument zero but for its slices' capacity, and no record keeping
// a bounce's view of a past run's leads — and returns the records on it.
func recordsAtRest() (int, error) {
	return enginetest.LettersAtRest(&letters, func(m *msg) error {
		if m.leads != nil {
			return fmt.Errorf("keeps a bounce's view of a past run's leads")
		}
		if !zeroToCap(reflect.ValueOf(m).Elem()) {
			return fmt.Errorf("argument not at rest")
		}
		return nil
	}, restMsg)
}

// listed returns the workspaces on both lists, the workers' first.
func listed() (workers, all []*parNode) {
	workers = workspaces[worker].Listed()
	return workers, append(slices.Clip(workers), workspaces[maintenance].Listed()...)
}

// emptyLists takes every workspace off both lists and every record block
// off letters.
func emptyLists() {
	for r := range workspaces {
		for range workspaces[r].Listed() {
			workspaces[r].Get()
		}
	}
	for range letters.Listed() {
		letters.Get()
	}
}

// TestPooledWorkspacesPinNothing: a completion's workers keep a basis and
// a divisor table in their reducers between reductions, a start frame,
// pair heaps — the maintenance node's central pool, each worker's queue
// in distributed mode — and every node an outbox of message records;
// after each completion — sequential, then parallel on either engine,
// then in distributed mode — every workspace on the free lists refers to
// no polynomial, frame or closure, holds no pair, to its heap's capacity,
// and no record, and the lists, emptied first, hold as many workspaces of
// each role as were once in use at the same time: one worker's, then the
// four workers' and the maintenance node's. Every record given back to
// letters is at rest, and after a parallel run some are. After the
// distributed run a worker's workspace has kept its heap's capacity. A
// record put at rest with its polynomial kept (a restMsg that keeps
// req.nf), or with a bounce's leads kept, is caught.
func TestPooledWorkspacesPinNothing(t *testing.T) {
	F, opt := k3Input()
	emptyLists()
	defer emptyLists()
	parallel := func(newRT func() earth.Runtime, distributed bool) func() error {
		return func() error {
			_, err := ParallelBuchberger(newRT(), F, ParallelConfig{Opt: opt, DistributedQueues: distributed})
			return err
		}
	}
	onSim := func() earth.Runtime { return simrt.New(earth.Config{Nodes: 5, Seed: 1}) }
	for _, c := range []struct {
		name        string
		run         func() error
		peak        [2]int // workers', maintenance
		workerHeaps bool
	}{
		{"Buchberger", func() error {
			_, err := Buchberger(F, opt)
			return err
		}, [2]int{1, 0}, false},
		{"ParallelBuchberger on simrt", parallel(onSim, false), [2]int{4, 1}, false},
		{"ParallelBuchberger on livert", parallel(func() earth.Runtime { return livert.New(earth.Config{Nodes: 5, Seed: 1}) }, false), [2]int{4, 1}, false},
		{"distributed ParallelBuchberger on simrt", parallel(onSim, true), [2]int{4, 1}, true},
	} {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		workers, free := listed()
		if got := [2]int{len(workers), len(free) - len(workers)}; got != c.peak {
			t.Errorf("after %s: %v workspaces on the workers' and maintenance lists, want %v", c.name, got, c.peak)
		}
		grown, heaps := false, false
		for i, ws := range free {
			if refersToRun(reflect.ValueOf(ws), map[uintptr]bool{}) {
				t.Errorf("after %s: listed workspace %d refers to a polynomial, a frame or a closure", c.name, i)
			}
			if err := outboxEmpty(ws); err != nil {
				t.Errorf("after %s: listed workspace %d's outbox: %v", c.name, i, err)
			}
			if k := slices.IndexFunc(ws.pairs.ps[:cap(ws.pairs.ps)], func(p Pair) bool { return !reflect.ValueOf(p).IsZero() }); k >= 0 {
				t.Errorf("after %s: listed workspace %d holds a pair at %d of its heap's %d", c.name, i, k, cap(ws.pairs.ps))
			}
			grown = grown || cap(ws.cache) > 0
			heaps = heaps || i < len(workers) && cap(ws.pairs.ps) > 0
		}
		if c.peak[1] > 0 && !grown {
			t.Errorf("after %s: no listed workspace kept its cache's capacity", c.name)
		}
		if c.workerHeaps && !heaps {
			t.Errorf("after %s: no worker's workspace kept its pair heap's capacity", c.name)
		}
		records, err := recordsAtRest()
		if err != nil {
			t.Errorf("after %s: listed records: %v", c.name, err)
		}
		if c.peak[1] > 0 && records == 0 {
			t.Errorf("after %s: no record kept", c.name)
		}
	}

	// The mutants: a record put at rest keeps its polynomial, or the
	// capacity of a bounce's leads, a view of the run's Updater.
	rest := restMsg
	defer func() { restMsg = rest }()
	for _, mut := range []struct {
		name string
		rest func(m *msg)
		pins bool // refersToRun flags it too
	}{
		{"keeps req.nf", func(m *msg) {
			nf := m.req.nf
			rest(m)
			m.req.nf = nf
		}, true},
		{"keeps leads", func(m *msg) {
			leads := m.leads
			rest(m)
			m.leads = emptied(leads)
		}, false},
	} {
		emptyLists()
		restMsg = mut.rest
		res, err := ParallelBuchberger(onSim(), F, ParallelConfig{Opt: opt})
		restMsg = rest
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected == 0 {
			t.Fatalf("%s: the run bounced nothing", mut.name)
		}
		_, err = recordsAtRest()
		if err == nil || mut.pins && !refersToRun(reflect.ValueOf(&letters), map[uintptr]bool{}) {
			t.Errorf("a restMsg that %s leaves no listed record flagged", mut.name)
		}
	}
}

// TestPooledOutboxesStopGrowing: two goroutines each run sequential
// Buchberger and a mix of machine sizes in both queue modes, three rounds
// over. Whichever runs overlap, the record list holds no more records
// than the two mixes' largest runs take from it alone, in sum, and the
// workspace lists no more workspaces of a role than the two can use at
// once; every listed workspace's outbox draws from the shared list and
// holds no record. Node outboxes that each kept their own records grew,
// over a sweep, to the largest count of any role they served.
func TestPooledOutboxesStopGrowing(t *testing.T) {
	F, opt := k3Input()
	type shape struct {
		nodes       int
		distributed bool
	}
	mixes := [2][]shape{
		{{2, false}, {5, true}, {8, false}, {3, true}},
		{{8, true}, {3, false}, {5, false}, {2, true}},
	}
	runMix := func(mix []shape) {
		if _, err := Buchberger(F, opt); err != nil {
			t.Error(err)
		}
		for _, s := range mix {
			if _, err := ParallelBuchberger(simrt.New(earth.Config{Nodes: s.nodes, Seed: 1}), F, ParallelConfig{Opt: opt, DistributedQueues: s.distributed}); err != nil {
				t.Error(err)
			}
		}
	}
	held := func() int {
		n, err := recordsAtRest()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	defer emptyLists()
	bound, workersBound := 0, 0
	for _, mix := range mixes {
		most, workers := 0, 1
		for _, s := range mix {
			emptyLists()
			runMix([]shape{s})
			most = max(most, held())
			workers = max(workers, s.nodes-1)
		}
		bound += most
		workersBound += workers
	}
	emptyLists()
	for round := range 3 {
		var wg sync.WaitGroup
		for _, mix := range mixes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runMix(mix)
			}()
		}
		wg.Wait()
		if n := held(); n > bound {
			t.Errorf("round %d: the record list holds %d records, more than the %d the mixes' largest runs take", round, n, bound)
		}
		workers, maint := len(workspaces[worker].Listed()), len(workspaces[maintenance].Listed())
		if workers > workersBound || maint > len(mixes) {
			t.Errorf("round %d: %d worker and %d maintenance workspaces listed, at most %d and %d in use at once", round, workers, maint, workersBound, len(mixes))
		}
		_, all := listed()
		for i, ws := range all {
			shared := reflect.ValueOf(&ws.out).Elem().FieldByName("src").Pointer() == reflect.ValueOf(&letters).Pointer()
			if err := outboxEmpty(ws); err != nil || !shared {
				t.Errorf("round %d: listed workspace %d keeps records of its own (shared list %v): %v", round, i, shared, err)
				break
			}
		}
	}
}

// TestWorkspacesSurviveCollection: a completion run after two collections
// (a sync.Pool would have dropped its workspaces by the second) allocates
// no more than one run without them, sequential and parallel alike.
func TestWorkspacesSurviveCollection(t *testing.T) {
	F, opt := k3Input()
	rt := simrt.New(earth.Config{Nodes: 5, Seed: 1})
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Buchberger", func() error {
			_, err := Buchberger(F, opt)
			return err
		}},
		{"ParallelBuchberger", func() error {
			_, err := ParallelBuchberger(rt, F, ParallelConfig{Opt: opt})
			return err
		}},
	} {
		run := func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		plain := testing.AllocsPerRun(20, run)
		collected := testing.AllocsPerRun(20, func() {
			runtime.GC()
			runtime.GC()
			run()
		})
		if collected > plain {
			t.Errorf("%s: a run after runtime.GC allocates %v times, one without it %v", c.name, collected, plain)
		}
	}
}
