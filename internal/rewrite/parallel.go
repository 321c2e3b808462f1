package rewrite

import (
	"fmt"

	"earth/internal/earth"
	"earth/internal/sim"
)

// Parallel Knuth-Bendix completion on the EARTH runtime, mirroring the
// structure of the parallel Gröbner completion (the paper presents the
// two as instances of one pattern): the reserved node (P-1) maintains the
// rule registry, the critical-pair pool and the insertion queue; workers
// fetch the globally smallest superposition, perform the two normal-form
// reductions (the real task grain), and ship irreducible consequences
// back as insert requests carrying their replication prefix (optimistic
// commit, parallel re-reduction on conflict). Rules are broadcast to
// per-worker caches. Termination is event-driven on the maintenance node.

// StepCost converts rewrite steps into modelled compute time.
type StepCost struct {
	PerStep sim.Time // per single rewrite application
	PerPair sim.Time // fixed overhead per processed pair
}

// DefaultStepCost suits the paper's grain regime (sub-millisecond tasks —
// the paper notes Knuth-Bendix is "at a finer level of granularity").
func DefaultStepCost() StepCost {
	return StepCost{PerStep: 50 * sim.Microsecond, PerPair: 100 * sim.Microsecond}
}

// ParallelResult reports the outcome.
type ParallelResult struct {
	System         *System
	Stats          *earth.Stats
	PairsProcessed int
	RulesAdded     int
	Rejected       int
}

type kbInsert struct {
	w      int
	word   string // the originating superposition (priority)
	u, v   string // reduced sides to orient
	prefix int
}

type kbState struct {
	cost    StepCost
	workers int
	m       earth.NodeID

	// Maintenance-node state.
	rules    []Rule
	pool     []CriticalPair
	seq      int
	insertQ  []kbInsert
	waiting  []bool // by worker: parked on an empty pool
	inflight []bool // by worker: reducing a pair
	// unresolved counts insert requests accepted by the maintenance node
	// whose resolution (commit acknowledgement or withdrawal) has not yet
	// been confirmed — the termination guard for in-flight conflict
	// round-trips.
	unresolved int
	stopped    bool
	added      int
	rejected   int

	// Per-worker caches (owner-only).
	caches [][]Rule
	stop   []bool
	proc   []int
}

// ParallelComplete runs completion on rt (>= 2 nodes: workers plus the
// maintenance node). It returns the interreduced convergent system.
func ParallelComplete(rt earth.Runtime, s *System) (*ParallelResult, error) {
	if rt.P() < 2 {
		return nil, fmt.Errorf("rewrite: need >= 2 nodes, got %d", rt.P())
	}
	workers := rt.P() - 1
	st := &kbState{
		cost: DefaultStepCost(), workers: workers, m: earth.NodeID(workers),
		waiting:  make([]bool, workers),
		inflight: make([]bool, workers),
		caches:   make([][]Rule, workers),
		stop:     make([]bool, workers),
		proc:     make([]int, workers),
	}

	stats := rt.Run(func(c earth.Ctx) {
		rules := append([]Rule(nil), s.Rules...)
		c.Post(st.m, wordsBytes(rules), func(c earth.Ctx) {
			st.rules = rules
			for i := range rules {
				for j := 0; j <= i; j++ {
					st.addPairs(i, j)
				}
			}
			for w := 0; w < st.workers; w++ {
				w := w
				for idx, r := range rules {
					earth.BlkMovBytes(c, earth.NodeID(w), len(r.L)+len(r.R), func() {
						st.cachePut(w, idx, r)
					}, nil, 0)
				}
				c.Post(earth.NodeID(w), 8, func(c earth.Ctx) { st.fetch(c, w) })
			}
		})
	})
	total := 0
	for _, p := range st.proc {
		total += p
	}
	out := Interreduce(&System{Rules: st.rules})
	return &ParallelResult{
		System: out, Stats: stats,
		PairsProcessed: total, RulesAdded: st.added, Rejected: st.rejected,
	}, nil
}

func wordsBytes(rules []Rule) int {
	n := 0
	for _, r := range rules {
		n += len(r.L) + len(r.R)
	}
	return n
}

// addPairs (maintenance node): superpositions of rules i and j into the
// pool.
func (st *kbState) addPairs(i, j int) {
	add := func(cps []CriticalPair) {
		for _, cp := range cps {
			cp.Seq = st.seq
			st.seq++
			st.pool = append(st.pool, cp)
		}
	}
	add(CriticalPairs(st.rules[i], st.rules[j]))
	if i != j {
		add(CriticalPairs(st.rules[j], st.rules[i]))
	}
}

func (st *kbState) cachePut(w, idx int, r Rule) {
	for len(st.caches[w]) <= idx {
		st.caches[w] = append(st.caches[w], Rule{})
	}
	st.caches[w][idx] = r
}

func (st *kbState) prefixLen(w int) int {
	for i, r := range st.caches[w] {
		if r.L == "" {
			return i
		}
	}
	return len(st.caches[w])
}

// fetch runs on worker w: request the globally smallest superposition.
func (st *kbState) fetch(c earth.Ctx, w int) {
	if st.stop[w] {
		return
	}
	c.Post(st.m, 16, func(c earth.Ctx) {
		if len(st.pool) > 0 {
			best := 0
			for i := 1; i < len(st.pool); i++ {
				if Shortlex(st.pool[i].Word, st.pool[best].Word) < 0 {
					best = i
				}
			}
			cp := st.pool[best]
			st.pool[best] = st.pool[len(st.pool)-1]
			st.pool = st.pool[:len(st.pool)-1]
			st.inflight[w] = true
			c.Post(earth.NodeID(w), len(cp.Word)+len(cp.U)+len(cp.V), func(c earth.Ctx) {
				earth.SpawnBody(c, func(c earth.Ctx) { st.reduce(c, w, cp) })
			})
			return
		}
		st.waiting[w] = true
		// The park reply is the modelled message that tells the worker it
		// is parked; the worker keeps no state for it, but its message,
		// bytes and events are part of the run.
		c.Post(earth.NodeID(w), 8, func(c earth.Ctx) {})
		st.maybeStop(c)
	})
}

// reduce runs as a worker thread: normalise both sides of the pair
// against the local cache, then either resolve or ship an insert request.
func (st *kbState) reduce(c earth.Ctx, w int, cp CriticalPair) {
	local := &System{Rules: nonEmpty(st.caches[w])}
	nu, su := local.NormalForm(cp.U)
	nv, sv := local.NormalForm(cp.V)
	c.Compute(st.cost.PerPair + sim.Time(su+sv)*st.cost.PerStep)
	st.proc[w]++
	if nu == nv {
		c.Post(st.m, 16, func(c earth.Ctx) {
			st.inflight[w] = false
			st.tryInsert(c) // a blocked commit may have waited on this pair
			st.maybeStop(c)
		})
		st.fetch(c, w)
		return
	}
	req := kbInsert{w: w, word: cp.Word, u: nu, v: nv, prefix: st.prefixLen(w)}
	c.Post(st.m, len(nu)+len(nv)+16, func(c earth.Ctx) {
		st.inflight[w] = false
		st.unresolved++
		st.insertQ = append(st.insertQ, req)
		st.tryInsert(c)
	})
	st.fetch(c, w)
}

func nonEmpty(rules []Rule) []Rule {
	out := make([]Rule, 0, len(rules))
	for _, r := range rules {
		if r.L != "" {
			out = append(out, r)
		}
	}
	return out
}

// tryInsert runs on the maintenance node.
func (st *kbState) tryInsert(c earth.Ctx) {
	for len(st.insertQ) > 0 && !st.stopped {
		best := 0
		for i := 1; i < len(st.insertQ); i++ {
			if Shortlex(st.insertQ[i].word, st.insertQ[best].word) < 0 {
				best = i
			}
		}
		req := st.insertQ[best]
		st.insertQ[best] = st.insertQ[len(st.insertQ)-1]
		st.insertQ = st.insertQ[:len(st.insertQ)-1]

		if req.prefix >= len(st.rules) {
			// Current snapshot: orient and commit without rechecking.
			st.commit(c, req)
			continue
		}
		// Conflict: ship the missing rules back for a parallel
		// re-reduction.
		st.rejected++
		missing := st.rules[req.prefix:]
		from := req.prefix
		c.Post(earth.NodeID(req.w), wordsBytes(missing)+16, func(c earth.Ctx) {
			for k, r := range missing {
				st.cachePut(req.w, from+k, r)
			}
			earth.SpawnBody(c, func(c earth.Ctx) { st.rereduce(c, req) })
		})
	}
}

// rereduce runs as a worker thread after a conflict.
func (st *kbState) rereduce(c earth.Ctx, req kbInsert) {
	local := &System{Rules: nonEmpty(st.caches[req.w])}
	nu, su := local.NormalForm(req.u)
	nv, sv := local.NormalForm(req.v)
	c.Compute(sim.Time(su+sv) * st.cost.PerStep)
	if nu == nv {
		c.Post(st.m, 8, func(c earth.Ctx) {
			st.unresolved--
			st.maybeStop(c)
		})
		return
	}
	req.u, req.v = nu, nv
	req.prefix = st.prefixLen(req.w)
	c.Post(st.m, len(nu)+len(nv)+16, func(c earth.Ctx) {
		st.insertQ = append(st.insertQ, req)
		st.tryInsert(c)
	})
}

// commit runs on the maintenance node: orient, register, broadcast,
// create pairs, acknowledge.
func (st *kbState) commit(c earth.Ctx, req kbInsert) {
	rule, ok := Orient(req.u, req.v)
	if ok {
		idx := len(st.rules)
		st.rules = append(st.rules, rule)
		st.added++
		for i := 0; i <= idx; i++ {
			st.addPairs(i, idx)
		}
		for w := range st.workers {
			c.Post(earth.NodeID(w), len(rule.L)+len(rule.R), func(c earth.Ctx) {
				st.cachePut(w, idx, rule)
			})
		}
		st.dispatchWaiting(c)
	}
	// Acknowledge the origin worker; the returning confirmation resolves
	// the request.
	c.Post(earth.NodeID(req.w), 8, func(c earth.Ctx) {
		c.Post(st.m, 8, func(c earth.Ctx) {
			st.unresolved--
			st.maybeStop(c)
		})
	})
}

// dispatchWaiting restarts parked workers, in id order, while pairs are
// available.
func (st *kbState) dispatchWaiting(c earth.Ctx) {
	for w, parked := range st.waiting {
		if len(st.pool) == 0 {
			return
		}
		if !parked {
			continue
		}
		st.waiting[w] = false
		c.Post(earth.NodeID(w), 8, func(c earth.Ctx) { st.fetch(c, w) })
	}
}

// maybeStop runs on the maintenance node after every state change and
// stops the workers once the completion has finished.
func (st *kbState) maybeStop(c earth.Ctx) {
	if st.stopped || !st.finished() {
		return
	}
	st.stopped = true
	for w := range st.workers {
		c.Post(earth.NodeID(w), 8, func(c earth.Ctx) { st.stop[w] = true })
	}
}

// finished is the termination rule (DESIGN.md §4a.3), a predicate of the
// maintenance node's books alone: the pool and the insert queue are empty,
// every accepted request is resolved (a bounced one included), and every
// worker is parked with no pair in flight.
func (st *kbState) finished() bool {
	if len(st.pool) > 0 || len(st.insertQ) > 0 || st.unresolved > 0 {
		return false
	}
	for w, parked := range st.waiting {
		if !parked || st.inflight[w] {
			return false
		}
	}
	return true
}
