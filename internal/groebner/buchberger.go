// Package groebner computes Gröbner bases with Buchberger's completion
// algorithm — sequentially, and in the paper's parallel formulation on the
// EARTH runtime (per-node priority pair queues, a centrally maintained and
// fully replicated solution set, a lock for insertion, receiver-initiated
// ring load balancing, and a dedicated termination-detection node).
package groebner

import (
	"fmt"
	"slices"

	"earth/internal/earth"
	"earth/internal/poly"
)

// Options configures the completion procedure.
type Options struct {
	// NoCoprimeCriterion disables Buchberger's first criterion (B: coprime
	// leading monomials => the S-polynomial reduces to zero).
	NoCoprimeCriterion bool
	// NoChainCriterion disables the Gebauer-Möller M/F criteria and the
	// chain criterion on old pairs.
	NoChainCriterion bool
}

// Pair is a critical pair of basis indices I < J with its precomputed LCM.
type Pair struct {
	I, J int
	LCM  poly.Mono
	// Seq is the creation sequence number (tie-breaking), making pair
	// selection deterministic.
	Seq int
	// key is the LCM's poly.Ring.OrderKey, which orders as the ring's
	// monomial order does; keyed is false where the ring has none (and on a
	// Pair built by hand).
	key   uint64
	keyed bool
}

// Less reports pair-selection priority under a monomial order:
// Buchberger's normal selection strategy, the pair with the
// order-smallest LCM first ("the order of creating and processing pairs
// has a significant impact on the overall amount of work", paper
// Section 3.2). Used by both the sequential loop and the per-node queues
// of the parallel version.
//
// Pairs of one run share a ring, whose order ord is; two keyed pairs
// compare their keys, any other two their LCMs under ord — the same total
// order either way.
func (p Pair) Less(q Pair, ord poly.Order) bool {
	if p.keyed && q.keyed {
		if p.key != q.key {
			return p.key < q.key
		}
		return p.Seq < q.Seq
	}
	if c := ord.Compare(p.LCM, q.LCM); c != 0 {
		return c < 0
	}
	return p.Seq < q.Seq
}

// pairHeap is a binary min-heap of critical pairs under Pair.Less, the one
// structure that selects pairs: sequential Buchberger's set, the central
// pool and each worker's queue in distributed mode. Less is a strict total
// order (no two pairs of a run share a Seq), so pop returns the best pair
// of the set, whatever the heap's shape.
type pairHeap struct {
	ord poly.Order
	ps  []Pair
}

func (h *pairHeap) len() int { return len(h.ps) }

func (h *pairHeap) push(p Pair) {
	ps := append(h.ps, p)
	i := len(ps) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !p.Less(ps[parent], h.ord) {
			break
		}
		ps[i] = ps[parent]
		i = parent
	}
	ps[i] = p
	h.ps = ps
}

// pop removes and returns the best pair; the heap must not be empty.
func (h *pairHeap) pop() Pair {
	n := len(h.ps) - 1
	top := h.ps[0]
	h.ps[0] = h.ps[n]
	h.ps[n] = Pair{} // release its LCM
	h.ps = h.ps[:n]
	h.down(0)
	return top
}

// down moves the pair at i towards the leaves until no child is better.
func (h *pairHeap) down(i int) {
	ps := h.ps
	if i >= len(ps) {
		return
	}
	p := ps[i]
	for c := 2*i + 1; c < len(ps); c = 2*i + 1 {
		if c+1 < len(ps) && ps[c+1].Less(ps[c], h.ord) {
			c++
		}
		if !ps[c].Less(p, h.ord) {
			break
		}
		ps[i] = ps[c]
		i = c
	}
	ps[i] = p
}

// init restores the heap order after ps was changed in place, as Update
// filters and appends to it.
func (h *pairHeap) init() {
	for i := len(h.ps)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Trace records the work profile of one completion run — the quantities
// Table 2 reports.
type Trace struct {
	// PairsCreated counts pairs that entered the pair set.
	PairsCreated int
	// PairsSkipped counts pairs eliminated by the criteria without a
	// reduction (at creation or retroactively).
	PairsSkipped int
	// PairsReduced counts pairs whose S-polynomial was actually reduced —
	// the "tasks" of the parallel formulation.
	PairsReduced int
	// ZeroReductions counts reductions that ended in zero.
	ZeroReductions int
	// Added counts polynomials appended to the solution set (beyond the
	// input).
	Added int
	// TermOps accumulates term-operation counts across all reductions;
	// the compute model converts these into virtual time.
	TermOps int
	// PerReduction holds the term-op cost of each reduction in order.
	PerReduction []int
}

// Basis is a computed Gröbner basis.
type Basis struct {
	Ring  *poly.Ring
	Polys []*poly.Poly
	Trace Trace
}

// Updater maintains a critical-pair set under the Gebauer-Möller criteria.
// It is shared by the sequential algorithm and the parallel version (where
// the maintenance node alone creates pairs). An Updater serves one basis,
// which only grows: it keeps the leading monomial of every index it has
// seen.
type Updater struct {
	opt   Options
	seq   int
	leads []poly.Mono // leads[i] is the basis's i-th leading monomial, nil until asked for
	cands []cand      // appendNewPairs scratch...
	lcms  poly.Mono   // ...and the exponents its candidates' LCMs point into
}

// cand is one candidate pair (i, t) of appendNewPairs.
type cand struct {
	i       int
	lcm     poly.Mono
	coprime bool
	dead    bool
}

// lead returns basis[i].LeadMono(), unpacked once per index.
func (u *Updater) lead(basis []*poly.Poly, i int) poly.Mono {
	for len(u.leads) <= i {
		u.leads = append(u.leads, nil)
	}
	if u.leads[i] == nil {
		u.leads[i] = basis[i].LeadMono()
	}
	return u.leads[i]
}

// lcmIs reports whether lcm(a, b) equals m.
func lcmIs(a, b, m poly.Mono) bool {
	for i, e := range m {
		if max(a[i], b[i]) != e {
			return false
		}
	}
	return true
}

// NewUpdater returns a pair-set maintainer for the given options.
func NewUpdater(opt Options) *Updater { return &Updater{opt: opt} }

// Update applies the Gebauer-Möller update: given the basis G (whose last
// element, index t = len(G)-1, is the newly inserted polynomial) and the
// current pair set P (pairs among indices < t), it returns the new pair
// set, the number of candidate pairs considered (t), and the number of
// pairs eliminated by the criteria (candidates plus retroactively removed
// old pairs). The invariant considered = survived + candidateEliminations
// makes Trace bookkeeping exact: PairsCreated = PairsReduced + PairsSkipped
// at the end of a run.
//
// New pairs pass the M, F and B criteria of appendNewPairs; old pairs the
// chain criterion (with h = G[t]): drop (i,j) if lm(h) divides lcm(i,j)
// and both lcm(i,t) and lcm(j,t) differ from lcm(i,j).
func (u *Updater) Update(G []*poly.Poly, P []Pair) (out []Pair, considered, eliminated int) {
	t := len(G) - 1
	lmh := u.lead(G, t)
	if !u.opt.NoChainCriterion {
		kept := P[:0]
		for _, p := range P {
			if lmh.Divides(p.LCM) &&
				!lcmIs(u.lead(G, p.I), lmh, p.LCM) &&
				!lcmIs(u.lead(G, p.J), lmh, p.LCM) {
				eliminated++
				continue
			}
			kept = append(kept, p)
		}
		P = kept
	}
	old := len(P)
	out, considered = u.appendNewPairs(P, G, t)
	for i := old; i < len(out); i++ {
		out[i].Seq = u.seq
		u.seq++
	}
	return out, considered, eliminated + considered - (len(out) - old)
}

// appendNewPairs is the Gebauer-Möller candidate filter: it appends to
// out the critical pairs of basis[t] against every earlier (non-nil)
// entry that survive the configured criteria, and reports how many
// candidates it considered. Seq is left for the caller to number. With
// h = basis[t]:
//
//	M: drop (i,t) if lcm(j,t) properly divides lcm(i,t) for some j.
//	F: among new pairs with equal lcm keep one — unless the class
//	   contains a coprime pair (B), in which case drop the whole class.
//	B: drop (i,t) when lm(i) and lm(h) are coprime.
func (u *Updater) appendNewPairs(out []Pair, basis []*poly.Poly, t int) ([]Pair, int) {
	ring := basis[t].Ring()
	lmh := u.lead(basis, t)
	nv := len(lmh)
	// The candidates and their LCMs live in the Updater's scratch.
	cands := u.cands[:0]
	lcms := slices.Grow(u.lcms[:0], t*nv)
	for i, g := range basis[:t] {
		if g == nil {
			continue
		}
		lmi := u.lead(basis, i)
		for v, e := range lmi {
			lcms = append(lcms, max(e, lmh[v]))
		}
		cands = append(cands, cand{i: i, lcm: lcms[len(lcms)-nv:], coprime: lmi.Coprime(lmh)})
	}
	u.cands, u.lcms = cands, lcms

	if !u.opt.NoChainCriterion {
		// M criterion.
		for a := range cands {
			for b := range cands {
				if a == b || cands[b].dead {
					continue
				}
				if cands[b].lcm.Divides(cands[a].lcm) && !cands[b].lcm.Equal(cands[a].lcm) {
					cands[a].dead = true
					break
				}
			}
		}
		// F criterion: one representative per equal-lcm class; a class
		// containing a coprime pair dies entirely (B kills the class).
		for a := range cands {
			if cands[a].dead {
				continue
			}
			classHasCoprime := cands[a].coprime
			for b := a + 1; b < len(cands); b++ {
				if cands[b].dead || !cands[b].lcm.Equal(cands[a].lcm) {
					continue
				}
				if cands[b].coprime {
					classHasCoprime = true
				}
				cands[b].dead = true
			}
			if classHasCoprime {
				cands[a].dead = true
			}
		}
	}
	survivors := 0
	for i := range cands {
		c := &cands[i]
		c.dead = c.dead || (!u.opt.NoCoprimeCriterion && c.coprime)
		if !c.dead {
			survivors++
		}
	}
	// The surviving pairs share one block for their LCMs.
	out = slices.Grow(out, survivors)
	block := make(poly.Mono, 0, survivors*nv)
	for _, c := range cands {
		if c.dead {
			continue
		}
		block = append(block, c.lcm...)
		p := Pair{I: c.i, J: t, LCM: block[len(block)-nv : len(block) : len(block)]}
		p.key, p.keyed = ring.OrderKey(p.LCM)
		out = append(out, p)
	}
	return out, len(cands)
}

// workspaces holds node workspaces (see parNode) between completion runs,
// so that a run starts on a reducer, caches and pair storage already
// grown (a sweep makes thousands of runs). There is one list per role: a
// parallel run's maintenance node takes from and gives back to
// workspaces[maintenance], its workers and sequential Buchberger's reducer
// to workspaces[worker]. The maintenance node's storage (the central pool,
// the insert queue) differs from a worker's (cache, staircase, reducer);
// on one shared list a sweep's concurrent runs would hand maintenance
// workspaces to workers and back until every workspace had grown both.
// They are plain free lists, not sync.Pools (earth.FreeList), and each
// workspace serves one run and one goroutine at a time. putWorkspace
// clears every pointer, so a listed workspace pins no polynomial, frame or
// closure.
var workspaces [2]earth.FreeList[parNode]

// letters holds the protocol message records of finished runs, in blocks
// that any node's outboxes take (earth.Outbox): a workspace at rest holds
// none, and a sweep keeps about as many as its concurrent runs once held
// at the same time.
var letters earth.Letters[msg]

// role selects a workspace list.
type role int

const (
	worker role = iota
	maintenance
)

// getWorkspace takes a workspace for role r from its list, or makes one.
func getWorkspace(r role) *parNode {
	ws := workspaces[r].Get()
	if ws.red == nil {
		ws.red, ws.out = poly.NewReducer(), earth.NewOutbox(&letters)
	}
	return ws
}

// putWorkspace leaves ws at rest and returns it to role r's list.
func putWorkspace(r role, ws *parNode) {
	ws.reset()
	workspaces[r].Put(ws)
}

// Buchberger computes a Gröbner basis of the ideal generated by F. All
// inputs must share a ring; zero inputs are dropped. The result is not
// auto-reduced (call Reduce for the canonical reduced basis).
func Buchberger(F []*poly.Poly, opt Options) (*Basis, error) {
	ring, G := prepInput(F)
	if ring == nil {
		return nil, fmt.Errorf("groebner: empty input system")
	}
	b := &Basis{Ring: ring}
	u := NewUpdater(opt)
	ws := getWorkspace(worker)
	defer putWorkspace(worker, ws)
	red := ws.red
	P := pairHeap{ord: ring.Order()}
	// Seed the basis one element at a time so the criteria apply to the
	// initial pairs as well.
	basis := G[:0:0]
	for _, g := range G {
		basis = append(basis, g)
		var considered, elim int
		P.ps, considered, elim = u.Update(basis, P.ps)
		b.Trace.PairsCreated += considered
		b.Trace.PairsSkipped += elim
	}
	P.init()

	red.SetBasis(basis)
	for P.len() > 0 {
		p := P.pop()
		nf, st := red.ReduceMonic(basis[p.I], basis[p.J])
		b.Trace.PairsReduced++
		b.Trace.TermOps += st.TermOps
		b.Trace.PerReduction = append(b.Trace.PerReduction, st.TermOps)
		if nf.IsZero() {
			b.Trace.ZeroReductions++
			continue
		}
		basis = append(basis, nf)
		red.SetBasis(basis)
		b.Trace.Added++
		var considered, elim int
		P.ps, considered, elim = u.Update(basis, P.ps)
		P.init()
		b.Trace.PairsCreated += considered
		b.Trace.PairsSkipped += elim
	}
	b.Polys = basis
	return b, nil
}

// prepInput validates, clones and normalises the input system.
func prepInput(F []*poly.Poly) (*poly.Ring, []*poly.Poly) {
	var ring *poly.Ring
	var G []*poly.Poly
	for _, f := range F {
		if f == nil || f.IsZero() {
			continue
		}
		if ring == nil {
			ring = f.Ring()
		} else if f.Ring() != ring {
			panic("groebner: mixed-ring input")
		}
		G = append(G, f.Monic())
	}
	return ring, G
}

// Reduce converts a Gröbner basis into the unique reduced Gröbner basis:
// minimal (no leading monomial divides another) and fully interreduced,
// with monic elements sorted in descending leading-monomial order. Two
// bases of the same ideal under the same order reduce identically, which
// is how the tests compare parallel and sequential results.
func (b *Basis) Reduce() *Basis {
	// Minimalise: drop polys whose lead is divisible by another lead.
	leads := make([]poly.Mono, len(b.Polys))
	for i, g := range b.Polys {
		leads[i] = g.LeadMono()
	}
	var min []*poly.Poly
	for i, g := range b.Polys {
		redundant := false
		for j := range b.Polys {
			if i != j && leads[j].Divides(leads[i]) && (!leads[i].Equal(leads[j]) || j < i) {
				redundant = true
				break
			}
		}
		if !redundant {
			min = append(min, g)
		}
	}
	// Interreduce: replace each by its normal form modulo the others.
	out := make([]*poly.Poly, len(min))
	copy(out, min)
	for i := range out {
		others := make([]*poly.Poly, 0, len(out)-1)
		for j := range out {
			if j != i {
				others = append(others, out[j])
			}
		}
		nf, _ := poly.NormalForm(out[i], others)
		out[i] = nf.Monic()
	}
	// Sort descending by leading monomial.
	ord := b.Ring.Order()
	leads = leads[:len(out)]
	for i, g := range out {
		leads[i] = g.LeadMono()
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && ord.Compare(leads[j-1], leads[j]) < 0; j-- {
			out[j-1], out[j] = out[j], out[j-1]
			leads[j-1], leads[j] = leads[j], leads[j-1]
		}
	}
	return &Basis{Ring: b.Ring, Polys: out, Trace: b.Trace}
}

// IsGroebner verifies the Buchberger criterion: every S-polynomial of the
// basis reduces to zero. This is an exact correctness check (quadratic in
// basis size).
//
//unref:allow test oracle: the Buchberger criterion every basis test checks
func (b *Basis) IsGroebner() bool {
	for j := 1; j < len(b.Polys); j++ {
		for i := 0; i < j; i++ {
			if b.Polys[i].LeadMono().Coprime(b.Polys[j].LeadMono()) {
				continue
			}
			if !poly.ReducesToZero(poly.SPoly(b.Polys[i], b.Polys[j]), b.Polys) {
				return false
			}
		}
	}
	return true
}

// SameIdeal reports whether two Gröbner bases generate the same ideal:
// every element of each reduces to zero modulo the other.
func SameIdeal(a, b *Basis) bool {
	for _, f := range a.Polys {
		if !poly.ReducesToZero(f, b.Polys) {
			return false
		}
	}
	for _, f := range b.Polys {
		if !poly.ReducesToZero(f, a.Polys) {
			return false
		}
	}
	return true
}

// Equal reports whether two bases are identical as polynomial lists.
//
//unref:allow test oracle: sequential and parallel bases must be identical
func (b *Basis) Equal(o *Basis) bool {
	if len(b.Polys) != len(o.Polys) {
		return false
	}
	for i := range b.Polys {
		if !b.Polys[i].Equal(o.Polys[i]) {
			return false
		}
	}
	return true
}
