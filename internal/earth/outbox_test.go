package earth

import (
	"slices"
	"testing"
)

// outboxCtx is a Ctx on node 3 that keeps what is posted and spawned; no
// other method of it may be used.
type outboxCtx struct {
	Ctx
	posted  []ThreadBody
	spawned []*Frame
}

func (c *outboxCtx) Node() NodeID { return 3 }

func (c *outboxCtx) Post(_ NodeID, _ int, body ThreadBody) { c.posted = append(c.posted, body) }

func (c *outboxCtx) Spawn(f *Frame, _ int) { c.spawned = append(c.spawned, f) }

func (c *outboxCtx) Token(_ int, body ThreadBody) { c.posted = append(c.posted, body) }

// testArg is an argument with a count, a pointer and a slice whose
// capacity a reset keeps.
type testArg struct {
	n    int
	p    *int
	seen []int
}

// restArg puts a testArg at rest, keeping seen's capacity.
func restArg(a *testArg) { *a = testArg{seen: a.seen[:0]} }

// markArg is a plain handler: it records its argument's n.
func markArg(_ Ctx, l *Letter[testArg]) { l.Arg.seen = append(l.Arg.seen, l.Arg.n) }

// TestOutboxReusesOnlyAcrossReset: until Reset, Next hands out a record
// no earlier call did; Reset puts each used record at rest — its argument
// through zero, its handler dropped — and Next then hands the same
// records out again in the same order, with the capacity zero kept. A
// posted record's body runs its handler with that record, and so does the
// frame Spawn makes on the executing node.
func TestOutboxReusesOnlyAcrossReset(t *testing.T) {
	var ls Letters[testArg]
	o := NewOutbox(&ls)
	c := &outboxCtx{}
	x := 7
	var first []*Letter[testArg]
	for round := range 3 {
		c.posted = c.posted[:0]
		var got []*Letter[testArg]
		for i := range 5 + round { // every round needs more records than the last
			l := o.Next()
			if slices.Contains(got, l) {
				t.Fatalf("round %d: record %d handed out twice before Reset", round, i)
			}
			if l.Arg.n != 0 || l.Arg.p != nil || len(l.Arg.seen) != 0 || l.h != nil {
				t.Fatalf("round %d: record %d handed out not at rest: %+v", round, i, l.Arg)
			}
			if i < len(first) && l != first[i] {
				t.Fatalf("round %d: record %d is not the one handed out %d-th before", round, i, i)
			}
			if round > 0 && i < len(first) && cap(l.Arg.seen) == 0 {
				t.Fatalf("round %d: record %d lost its slice's capacity", round, i)
			}
			l.Arg.n, l.Arg.p = i+1, &x
			l.Post(c, 0, 8, markArg)
			got = append(got, l)
		}
		for i, body := range c.posted {
			body(c)
			if l := got[i]; !slices.Equal(l.Arg.seen, []int{i + 1}) {
				t.Fatalf("round %d: body %d ran its handler with %v, want record %d's", round, i, l.Arg.seen, i)
			}
		}
		got[0].Spawn(c, markArg)
		f := c.spawned[len(c.spawned)-1]
		if f.Home != 3 {
			t.Fatalf("round %d: Spawn made a frame on node %d, want the executing node 3", round, f.Home)
		}
		f.ThreadBody(0)(c)
		if !slices.Equal(got[0].Arg.seen, []int{1, 1}) {
			t.Fatalf("round %d: the spawned thread ran its handler with %v", round, got[0].Arg.seen)
		}
		zeroed := 0
		o.Reset(func(a *testArg) {
			zeroed++
			restArg(a)
		})
		if zeroed != len(got) {
			t.Fatalf("round %d: Reset zeroed %d arguments, %d were used", round, zeroed, len(got))
		}
		for i, l := range got {
			if l.Arg.n != 0 || l.Arg.p != nil || len(l.Arg.seen) != 0 || l.h != nil {
				t.Fatalf("round %d: record %d not at rest after Reset: %+v", round, i, l.Arg)
			}
		}
		first = got
	}
}

// TestOutboxPostsWithoutAllocating: a warm outbox sends a run's messages,
// and their bodies run, without an allocation.
func TestOutboxPostsWithoutAllocating(t *testing.T) {
	var ls Letters[testArg]
	o := NewOutbox(&ls)
	c := &outboxCtx{posted: make([]ThreadBody, 0, 16)}
	run := func() {
		c.posted = c.posted[:0]
		for i := range 16 {
			l := o.Next()
			l.Arg.n = i
			l.Post(c, NodeID(i%4), 16, markArg)
		}
		for _, body := range c.posted {
			body(c)
		}
		o.Reset(restArg)
	}
	run() // makes the records
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("a warm outbox allocates %v times per run of 16 messages", allocs)
	}
}

// TestOutboxTokenWithoutAllocating: a warm outbox issues a run's tokens,
// and hands out bodies for frames the caller builds, without an
// allocation; each token's body and each handed-out body runs its handler
// with its own record.
func TestOutboxTokenWithoutAllocating(t *testing.T) {
	var src Letters[testArg]
	o := NewOutbox(&src)
	c := &outboxCtx{posted: make([]ThreadBody, 0, 32)}
	var ls [32]*Letter[testArg]
	run := func() {
		c.posted = c.posted[:0]
		for i := range 16 {
			l := o.Next()
			l.Arg.n = i + 1
			l.Token(c, 28, markArg)
			ls[i] = l
		}
		for i := range 16 {
			l := o.Next()
			l.Arg.n = 100 + i
			c.posted = append(c.posted, l.Thread(markArg))
			ls[16+i] = l
		}
		for _, body := range c.posted {
			body(c)
		}
		for i, l := range ls {
			if len(l.Arg.seen) != 1 || l.Arg.seen[0] != l.Arg.n {
				t.Fatalf("body %d ran its handler with %v, want its own record's %d", i, l.Arg.seen, l.Arg.n)
			}
		}
		o.Reset(restArg)
	}
	run() // makes the records
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("a warm outbox allocates %v times per run of 16 tokens and 16 thread bodies", allocs)
	}
}

// TestOutboxesShareLetters: outboxes on one Letters never hand out the
// same record before their Resets, Reset gives every block back at rest,
// and the list then holds the blocks the outboxes held at once, which
// later runs of any shape reuse without allocating.
func TestOutboxesShareLetters(t *testing.T) {
	var ls Letters[testArg]
	a, b := NewOutbox(&ls), NewOutbox(&ls)
	c := &outboxCtx{posted: make([]ThreadBody, 0, 64)}
	var seen map[*Letter[testArg]]bool // nil: not checked
	run := func(na, nb int) {
		c.posted = c.posted[:0]
		for i, o := range []*Outbox[testArg]{&a, &b, &a, &b} {
			for range []int{na, nb}[i%2] / 2 {
				l := o.Next()
				if seen != nil {
					if seen[l] {
						t.Fatal("a record handed out twice before Reset")
					}
					seen[l] = true
				}
				l.Arg.n = 1
				l.Post(c, 0, 8, markArg)
			}
		}
		for _, body := range c.posted {
			body(c)
		}
		a.Reset(restArg)
		b.Reset(restArg)
	}
	seen = map[*Letter[testArg]]bool{}
	run(40, 8) // 3 and 1 blocks of 16
	seen = nil
	if got := len(ls.Listed()); got != 4 {
		t.Fatalf("%d blocks listed after outboxes holding 3 and 1, want 4", got)
	}
	for _, blk := range ls.Listed() {
		for i := range blk {
			if l := &blk[i]; l.Arg.n != 0 || l.h != nil || len(l.Arg.seen) != 0 {
				t.Fatalf("a listed record is not at rest: %+v", l.Arg)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { run(8, 40) }); allocs != 0 {
		t.Errorf("runs of another shape on the listed blocks allocate %v times", allocs)
	}
	if got := len(ls.Listed()); got != 4 {
		t.Errorf("%d blocks listed after runs of another shape, want the 4 still", got)
	}
}
