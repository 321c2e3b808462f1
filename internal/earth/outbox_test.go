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
	var o Outbox[testArg]
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
	var o Outbox[testArg]
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
