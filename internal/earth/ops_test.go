package earth

import (
	"math/rand"
	"testing"

	"earth/internal/sim"
)

// fakeCtx records operations so the typed sugar layer can be tested
// without an engine.
type fakeCtx struct {
	node    NodeID
	p       int
	now     sim.Time
	rng     *rand.Rand
	spawned []struct {
		f  *Frame
		th int
	}
	syncs []struct {
		f    *Frame
		slot int
	}
	gets []struct {
		owner  NodeID
		nbytes int
	}
	puts []struct {
		owner  NodeID
		nbytes int
	}
	invokes []struct {
		node  NodeID
		bytes int
	}
	posts  []NodeID
	tokens []int
}

var _ Ctx = (*fakeCtx)(nil)

func (c *fakeCtx) Node() NodeID       { return c.node }
func (c *fakeCtx) P() int             { return c.p }
func (c *fakeCtx) Now() sim.Time      { return c.now }
func (c *fakeCtx) Compute(d sim.Time) { c.now += d }
func (c *fakeCtx) Rand() *rand.Rand   { return c.rng }

func (c *fakeCtx) Spawn(f *Frame, th int) {
	c.spawned = append(c.spawned, struct {
		f  *Frame
		th int
	}{f, th})
	// Run immediately (synchronous fake).
	f.ThreadBody(th)(c)
}

func (c *fakeCtx) Sync(f *Frame, slot int) {
	c.syncs = append(c.syncs, struct {
		f    *Frame
		slot int
	}{f, slot})
	if fired, th := f.Dec(slot); fired {
		f.ThreadBody(th)(c)
	}
}

func (c *fakeCtx) Get(owner NodeID, nbytes int, read func() func(), f *Frame, slot int) {
	c.gets = append(c.gets, struct {
		owner  NodeID
		nbytes int
	}{owner, nbytes})
	read()()
	if f != nil {
		c.Sync(f, slot)
	}
}

func (c *fakeCtx) Put(owner NodeID, nbytes int, write func(), f *Frame, slot int) {
	c.puts = append(c.puts, struct {
		owner  NodeID
		nbytes int
	}{owner, nbytes})
	write()
	if f != nil {
		c.Sync(f, slot)
	}
}

func (c *fakeCtx) Invoke(node NodeID, bytes int, body ThreadBody) {
	c.invokes = append(c.invokes, struct {
		node  NodeID
		bytes int
	}{node, bytes})
	body(c)
}

func (c *fakeCtx) Post(node NodeID, bytes int, h ThreadBody) {
	c.posts = append(c.posts, node)
	h(c)
}

func (c *fakeCtx) Token(bytes int, body ThreadBody) {
	c.tokens = append(c.tokens, bytes)
	body(c)
}

func newFake() *fakeCtx {
	return &fakeCtx{node: 0, p: 4, rng: rand.New(rand.NewSource(1))}
}

func TestGetSyncTyped(t *testing.T) {
	c := newFake()
	srcF, dstF := 2.5, 0.0
	earth := c // alias for readability
	GetSyncF64(earth, 1, &srcF, &dstF, nil, 0)
	if dstF != 2.5 {
		t.Fatalf("dstF = %v", dstF)
	}
	if c.gets[0].owner != 1 || c.gets[0].nbytes != SizeF64 {
		t.Fatalf("get record = %+v", c.gets[0])
	}
	srcI, dstI := 7, 0
	GetSyncI64(c, 2, &srcI, &dstI, nil, 0)
	if dstI != 7 || c.gets[1].nbytes != SizeI64 {
		t.Fatalf("int get failed: %d %+v", dstI, c.gets[1])
	}
}

func TestDataSyncTyped(t *testing.T) {
	c := newFake()
	var cellF float64
	DataSyncF64(c, 3, 1.25, &cellF, nil, 0)
	if cellF != 1.25 || c.puts[0].owner != 3 || c.puts[0].nbytes != SizeF64 {
		t.Fatalf("float put: %v %+v", cellF, c.puts[0])
	}
	var cellS string
	DataSyncVal(c, 2, 11, "hello", &cellS, nil, 0)
	if cellS != "hello" || c.puts[1].nbytes != 11 {
		t.Fatalf("generic put: %q %+v", cellS, c.puts[1])
	}
}

func TestBlkMovHelpers(t *testing.T) {
	c := newFake()
	done := false
	BlkMovBytes(c, 2, 128, func() { done = true }, nil, 0)
	if !done || c.puts[0].nbytes != 128 {
		t.Fatal("BlkMovBytes failed")
	}
}

func TestBlkMovBytesVOneTransfer(t *testing.T) {
	c := newFake()
	f := NewFrame(0, 1, 1)
	fired := 0
	f.SetThread(0, func(Ctx) { fired++ })
	f.InitSync(0, 1, 0, 0)
	var order []int
	BlkMovBytesV(c, 3, []int{16, 24, 8}, []func(){
		func() { order = append(order, 0) },
		func() { order = append(order, 1) },
		func() { order = append(order, 2) },
	}, f, 0)
	if len(c.puts) != 1 || c.puts[0].owner != 3 || c.puts[0].nbytes != 48 {
		t.Fatalf("puts = %+v, want one of 48 bytes to node 3", c.puts)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("writes ran in order %v, want [0 1 2]", order)
	}
	if fired != 1 {
		t.Fatalf("completion fired %d times, want once", fired)
	}
}

func TestBlkMovLengthMismatchPanics(t *testing.T) {
	c := newFake()
	for name, op := range map[string]func(){
		"more sizes":  func() { BlkMovBytesV(c, 1, []int{8, 8}, []func(){func() {}}, nil, 0) },
		"more writes": func() { BlkMovBytesV(c, 1, []int{8}, []func(){func() {}, func() {}}, nil, 0) },
	} {
		if panicMessage(op) == "" {
			t.Errorf("BlkMovBytesV with %s did not panic", name)
		}
	}
	if len(c.puts) != 0 {
		t.Fatalf("a mismatched BlkMovBytesV shipped %+v", c.puts)
	}
}

func TestRsyncAndSpawnBody(t *testing.T) {
	c := newFake()
	f := NewFrame(0, 1, 1)
	ran := false
	f.InitSync(0, 1, 0, 0)
	f.SetThread(0, func(Ctx) { ran = true })
	Rsync(c, f, 0)
	if !ran || len(c.syncs) != 1 {
		t.Fatal("Rsync did not fire")
	}
	spawned := false
	SpawnBody(c, func(Ctx) { spawned = true })
	if !spawned {
		t.Fatal("SpawnBody did not run")
	}
}

func TestGetSyncValGeneric(t *testing.T) {
	c := newFake()
	type pair struct{ A, B int }
	src := pair{1, 2}
	var dst pair
	GetSyncVal(c, 1, 16, &src, &dst, nil, 0)
	if dst != src {
		t.Fatalf("dst = %+v", dst)
	}
}
