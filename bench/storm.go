package main

import (
	"math/rand"
	"time"

	"earth/internal/earth"
	"earth/internal/sim"
)

// storm is the benchmark's own zero-grain EARTH program. The root invokes
// a spawner on every node; each spawner issues its share of tokens; each
// token allocates a frame, fetches one word from a partner node (Get),
// writes 64 bytes at a second (Put) and, once both complete, posts a
// handler to a third and signals its spawner's completion frame. Bodies
// do no host work beyond that, so host time is the engine's: event heap,
// network model, frame sync, message send/deliver/fire, work stealing.
//
// The shape (shares, partners, modelled compute) and every closure the
// program hands the engine are generated from the benchmark seed before
// the run; the engine sees only the program.
type storm struct {
	nodes int
	// first[n] is the first token index node n's spawner issues and
	// first[nodes] the token count: shares are uneven (weights 1..4, dealt
	// to the nodes in seeded order), so lightly loaded nodes run dry and
	// steal, as idle nodes do in the paper's fine-grain regime. Every seed
	// deals the same weights, so the amount of stealing — and with it the
	// event and allocation counts — varies little from seed to seed.
	first []int
	tok   []stormToken
	// posted is the handler every token posts, bound once: a method value
	// taken per Post would allocate per token.
	posted earth.ThreadBody
	// skipSync withholds one completion Sync (token index, -1 for none):
	// the injected bug the tests use to prove the checks can fail.
	skipSync int

	// st is the run state, cleared by reset(). Every element is written
	// only from its own node's execution context (the owner-computes
	// discipline both engines guarantee).
	st []stormNode
}

// stormToken is one token: its generated shape, its two bodies and the
// private state of its activation, touched only by the node running it.
type stormToken struct {
	getFrom, putTo, postTo, spawner earth.NodeID
	grain                           sim.Time
	body, cont                      earth.ThreadBody
	got                             int // the fetched word
}

// stormNode is one node's owned state, padded so nodes that run on
// different host threads (livert, shards > 1) do not share a cache line.
type stormNode struct {
	cell     int          // value Gets fetch from this node
	inbox    [8]uint64    // the 64 bytes Puts write here
	puts     int          // Puts applied here
	posts    int          // Post handlers run here
	ran      int          // token continuations run here
	badFetch int          // fetched values that differed from the owner's cell
	done     *earth.Frame // this node's spawner's completion frame
	finished bool         // its completion thread ran
	write    func()       // what a Put to this node does
	_        [24]byte
}

// cellValue is what node n's cell holds for the whole run.
func cellValue(n earth.NodeID) int { return 1000003*int(n) + 17 }

// newStorm generates a storm of the given size from seed.
func newStorm(nodes, tokens int, seed int64) *storm {
	rng := rand.New(rand.NewSource(seed))
	s := &storm{nodes: nodes, skipSync: -1, first: make([]int, nodes+1),
		tok: make([]stormToken, tokens), st: make([]stormNode, nodes)}
	total := 0
	for n, k := range rng.Perm(nodes) {
		total += 1 + k%4
		s.first[n+1] = total
	}
	for n := range s.first {
		s.first[n] = s.first[n] * tokens / total
	}
	for n := 0; n < nodes; n++ {
		for i := s.first[n]; i < s.first[n+1]; i++ {
			i, t := i, &s.tok[i]
			t.spawner = earth.NodeID(n)
			t.getFrom = earth.NodeID(rng.Intn(nodes))
			t.putTo = earth.NodeID(rng.Intn(nodes))
			t.postTo = earth.NodeID(rng.Intn(nodes))
			t.grain = sim.Time(1+rng.Intn(20)) * sim.Microsecond
			t.body = func(c earth.Ctx) { s.token(c, t) }
			t.cont = func(c earth.Ctx) { s.cont(c, t, i) }
		}
	}
	s.posted = func(c earth.Ctx) { s.st[c.Node()].posts++ }
	s.reset()
	return s
}

func (s *storm) reset() {
	for n := range s.st {
		st := &s.st[n]
		*st = stormNode{cell: cellValue(earth.NodeID(n))}
		st.write = func() {
			st.inbox[st.puts&7] = uint64(st.puts)
			st.puts++
		}
	}
}

// ops is the number of EARTH operations one run issues: an Invoke per
// node, and a Token, Get, Put, Post and Sync per token.
func (s *storm) ops() int { return s.nodes + 5*len(s.tok) }

// main is the program's root thread.
func (s *storm) main(c earth.Ctx) {
	for n := 0; n < s.nodes; n++ {
		c.Invoke(earth.NodeID(n), 16, s.spawner)
	}
}

// spawner runs on each node and issues that node's share of the tokens.
func (s *storm) spawner(c earth.Ctx) {
	n := c.Node()
	st := &s.st[n]
	lo, hi := s.first[n], s.first[n+1]
	if lo == hi {
		st.finished = true
		return
	}
	st.done = earth.NewFrame(n, 1, 1)
	st.done.SetThread(0, func(earth.Ctx) { st.finished = true })
	st.done.InitSync(0, hi-lo, 0, 0)
	for i := lo; i < hi; i++ {
		c.Token(16, s.tok[i].body)
	}
}

// token is a token's first thread; it runs wherever the balancer put it.
func (s *storm) token(c earth.Ctx, t *stormToken) {
	c.Compute(t.grain)
	f := earth.NewFrame(c.Node(), 1, 1)
	f.SetThread(0, t.cont)
	f.InitSync(0, 2, 0, 0)
	earth.GetSyncI64(c, t.getFrom, &s.st[t.getFrom].cell, &t.got, f, 0)
	c.Put(t.putTo, 64, s.st[t.putTo].write, f, 0)
}

// cont is a token's continuation, enabled when its Get and Put are done.
func (s *storm) cont(c earth.Ctx, t *stormToken, i int) {
	st := &s.st[c.Node()]
	st.ran++
	if t.got != cellValue(t.getFrom) {
		st.badFetch++
	}
	c.Post(t.postTo, 8, s.posted)
	if i != s.skipSync {
		c.Sync(s.st[t.spawner].done, 0)
	}
}

// check verifies the run's invariants: every token ran its continuation
// once, every Put and Post landed, every fetched value was the owner's
// and every spawner saw all its tokens complete. exact is false for fault
// plans that discard fenced work by design (a partition outliving the
// lease): those runs must terminate with nothing duplicated or corrupted,
// but may lose work.
func (s *storm) check(exact bool, label string) checks {
	var ran, puts, posts, bad, finished int
	for n := range s.st {
		st := &s.st[n]
		ran += st.ran
		puts += st.puts
		posts += st.posts
		bad += st.badFetch
		if st.finished {
			finished++
		}
	}
	var c checks
	count := func(name string, got, want int) {
		c.expect(got == want || (!exact && got < want), "%s: %s = %d, want %d", label, name, got, want)
	}
	count("continuations run", ran, len(s.tok))
	count("puts applied", puts, len(s.tok))
	count("posts handled", posts, len(s.tok))
	count("spawners completed", finished, s.nodes)
	c.expect(bad == 0, "%s: %d fetched values differ from the owner's", label, bad)
	return c
}

// simValues is the benchmark's own projection of a run's simulated
// statistics, flattened in a fixed order: elapsed, events, then per node
// busy, threads, tokens run, tokens stolen, messages, bytes and syncs. It
// names the fields it wants, so counters added to earth.Stats later do
// not disturb the committed reference.
func simValues(st *earth.Stats) []float64 {
	out := make([]float64, 0, 2+7*len(st.Nodes))
	out = append(out, float64(st.Elapsed), float64(st.Events))
	for i := range st.Nodes {
		n := &st.Nodes[i]
		out = append(out, float64(n.Busy), float64(n.ThreadsRun), float64(n.TokensRun),
			float64(n.TokensStolen), float64(n.MsgsSent), float64(n.BytesSent), float64(n.Syncs))
	}
	return out
}

// freeEngine runs an EARTH program with every engine operation free:
// bodies run to completion in issue order on the calling goroutine, data
// moves at once and nothing is scheduled, modelled or counted. What a run
// costs on it is the host time of the program's own closures (plus the
// Frame counters they arm), which is what a traced run subtracts from an
// engine's Run span to get the engine's self time.
type freeEngine struct {
	ctxs  []freeCtx
	queue []freeItem
}

type freeItem struct {
	node earth.NodeID
	body earth.ThreadBody
}

type freeCtx struct {
	e    *freeEngine
	node earth.NodeID
}

func newFreeEngine(nodes int) *freeEngine {
	e := &freeEngine{ctxs: make([]freeCtx, nodes)}
	for n := range e.ctxs {
		e.ctxs[n] = freeCtx{e, earth.NodeID(n)}
	}
	return e
}

// run executes main and everything it causes; it returns the host time
// taken and the number of bodies run.
func (e *freeEngine) run(main earth.ThreadBody) (time.Duration, int64) {
	e.queue = append(e.queue[:0], freeItem{0, main})
	t0 := time.Now()
	for i := 0; i < len(e.queue); i++ {
		it := e.queue[i]
		e.queue[i].body = nil
		it.body(&e.ctxs[it.node])
	}
	return time.Since(t0), int64(len(e.queue))
}

func (c *freeCtx) push(node earth.NodeID, body earth.ThreadBody) {
	c.e.queue = append(c.e.queue, freeItem{node, body})
}

func (c *freeCtx) Node() earth.NodeID { return c.node }
func (c *freeCtx) P() int             { return len(c.e.ctxs) }
func (c *freeCtx) Now() sim.Time      { return 0 }
func (c *freeCtx) Compute(sim.Time)   {}
func (c *freeCtx) Rand() *rand.Rand   { return nil } // the storm's randomness is drawn at generation

func (c *freeCtx) Spawn(f *earth.Frame, thread int) { c.push(f.Home, f.ThreadBody(thread)) }
func (c *freeCtx) Sync(f *earth.Frame, slot int) {
	if fired, thread := f.Dec(slot); fired {
		c.push(f.Home, f.ThreadBody(thread))
	}
}
func (c *freeCtx) Get(_ earth.NodeID, _ int, read func() func(), f *earth.Frame, slot int) {
	read()()
	if f != nil {
		c.Sync(f, slot)
	}
}
func (c *freeCtx) Put(_ earth.NodeID, _ int, write func(), f *earth.Frame, slot int) {
	write()
	if f != nil {
		c.Sync(f, slot)
	}
}
func (c *freeCtx) Invoke(node earth.NodeID, _ int, body earth.ThreadBody) { c.push(node, body) }
func (c *freeCtx) Post(node earth.NodeID, _ int, body earth.ThreadBody)   { c.push(node, body) }
func (c *freeCtx) Token(_ int, body earth.ThreadBody)                     { c.push(c.node, body) }
