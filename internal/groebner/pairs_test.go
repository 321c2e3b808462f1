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
// body is not walked: it is the one closure a workspace keeps, and
// outboxAtRest checks that it serves its own record.
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
			if v.Type() == letterType && v.Type().Field(i).Name == "body" {
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

// letterType is an outbox record's type.
var letterType = reflect.TypeFor[earth.Letter[msg]]()

// postCtx is a Ctx whose Post keeps the body it is given; nothing else of
// it may be used.
type postCtx struct {
	earth.Ctx
	body earth.ThreadBody
}

func (c *postCtx) Post(_ earth.NodeID, _ int, body earth.ThreadBody) { c.body = body }

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

// outboxAtRest checks ws's outbox: no record in use, and every record a
// zero argument but for its slices' capacity and no handler, with a body
// that runs a handler posted on the record with that record. The last
// check posts each record once and puts them all at rest again. It returns
// the number of records and the first fault.
func outboxAtRest(ws *parNode) (int, error) {
	out := reflect.ValueOf(&ws.out).Elem()
	if n := out.FieldByName("n").Int(); n != 0 {
		return 0, fmt.Errorf("%d records still in use", n)
	}
	ls := out.FieldByName("ls")
	all := ls.Slice(0, ls.Cap())
	for i := range all.Len() {
		l := all.Index(i)
		if i >= ls.Len() {
			if !l.IsNil() {
				return 0, fmt.Errorf("a record past the %d listed", ls.Len())
			}
			continue
		}
		if !zeroToCap(l.Elem().FieldByName("Arg")) {
			return 0, fmt.Errorf("record %d: argument not at rest", i)
		}
		if !l.Elem().FieldByName("h").IsNil() {
			return 0, fmt.Errorf("record %d: handler kept", i)
		}
	}
	defer ws.out.Reset(restMsg)
	for i := range ls.Len() {
		l := ws.out.Next()
		if reflect.ValueOf(l).Pointer() != ls.Index(i).Pointer() {
			return 0, fmt.Errorf("record %d is not the outbox's next", i)
		}
		var got *earth.Letter[msg]
		c := &postCtx{}
		l.Post(c, 0, 0, func(_ earth.Ctx, r *earth.Letter[msg]) { got = r })
		if c.body(c); got != l {
			return 0, fmt.Errorf("record %d: its body serves another record", i)
		}
	}
	return ls.Len(), nil
}

// TestPooledWorkspacesPinNothing: a completion's workers keep a basis and
// a divisor table in their reducers between reductions, a start frame,
// pair heaps — the maintenance node's central pool, each worker's queue
// in distributed mode — and every node an outbox of message records;
// after each completion — sequential, then parallel on either engine,
// then in distributed mode — every workspace on the free list refers to
// no polynomial, frame or closure but its records' bound bodies, holds no
// pair, to its heap's capacity, and has every record at rest, and the
// list, emptied first, holds as many workspaces as were once in use at
// the same time: one, then the five nodes'. After a parallel run some
// workspace kept records; after the distributed run a worker's workspace
// (every listed one but the last, the maintenance node's) has kept its
// heap's capacity. A record put at rest with its polynomial kept (a
// restMsg that keeps req.nf) is caught.
func TestPooledWorkspacesPinNothing(t *testing.T) {
	F, opt := k3Input()
	emptyList := func() {
		workspaces.mu.Lock()
		workspaces.free = nil
		workspaces.mu.Unlock()
	}
	emptyList()
	defer emptyList()
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
		peak        int
		workerHeaps bool
	}{
		{"Buchberger", func() error {
			_, err := Buchberger(F, opt)
			return err
		}, 1, false},
		{"ParallelBuchberger on simrt", parallel(onSim, false), 5, false},
		{"ParallelBuchberger on livert", parallel(func() earth.Runtime { return livert.New(earth.Config{Nodes: 5, Seed: 1}) }, false), 5, false},
		{"distributed ParallelBuchberger on simrt", parallel(onSim, true), 5, true},
	} {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		workspaces.mu.Lock()
		free := slices.Clone(workspaces.free)
		workspaces.mu.Unlock()
		if len(free) != c.peak {
			t.Errorf("after %s: %d workspaces on the free list, want %d", c.name, len(free), c.peak)
		}
		grown, heaps, records := false, false, 0
		for i, ws := range free {
			if refersToRun(reflect.ValueOf(ws), map[uintptr]bool{}) {
				t.Errorf("after %s: listed workspace %d refers to a polynomial, a frame or a closure", c.name, i)
			}
			n, err := outboxAtRest(ws)
			if err != nil {
				t.Errorf("after %s: listed workspace %d's outbox: %v", c.name, i, err)
			}
			records += n
			if k := slices.IndexFunc(ws.pairs.ps[:cap(ws.pairs.ps)], func(p Pair) bool { return !reflect.ValueOf(p).IsZero() }); k >= 0 {
				t.Errorf("after %s: listed workspace %d holds a pair at %d of its heap's %d", c.name, i, k, cap(ws.pairs.ps))
			}
			grown = grown || cap(ws.cache) > 0
			heaps = heaps || i < len(free)-1 && cap(ws.pairs.ps) > 0
		}
		if c.peak > 1 && !grown {
			t.Errorf("after %s: no listed workspace kept its cache's capacity", c.name)
		}
		if c.workerHeaps && !heaps {
			t.Errorf("after %s: no worker's workspace kept its pair heap's capacity", c.name)
		}
		if c.peak > 1 && records == 0 {
			t.Errorf("after %s: no listed workspace kept an outbox record", c.name)
		}
	}

	// The mutant: a record put at rest keeps its polynomial.
	emptyList()
	rest := restMsg
	restMsg = func(m *msg) {
		nf := m.req.nf
		rest(m)
		m.req.nf = nf
	}
	err := parallel(onSim, false)()
	restMsg = rest
	if err != nil {
		t.Fatal(err)
	}
	workspaces.mu.Lock()
	free := slices.Clone(workspaces.free)
	workspaces.mu.Unlock()
	caught := false
	for _, ws := range free {
		_, err := outboxAtRest(ws)
		caught = caught || err != nil && refersToRun(reflect.ValueOf(ws), map[uintptr]bool{})
	}
	if !caught {
		t.Error("a restMsg that keeps req.nf leaves no listed workspace flagged")
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
