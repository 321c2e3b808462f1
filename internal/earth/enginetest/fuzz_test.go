package enginetest

import (
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// fuzzProgram decodes an arbitrary byte string into a correct-by-
// construction EARTH program: a fan-out tree of Invoke/Token/Post hops
// whose leaves each contribute a known value to a node-0 accumulator
// guarded by one sync slot. Whatever the bytes say, the program has a
// precomputable result, so any divergence is an engine bug.
type fuzzProgram struct {
	nodes  int
	want   int
	leaves int
	data   []byte
	branch int
	depth  int
}

func decodeFuzzProgram(data []byte) fuzzProgram {
	b := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	p := fuzzProgram{
		nodes:  1 + b(0)%6,
		depth:  b(1) % 4,
		branch: 1 + b(2)%3,
		data:   data,
	}
	p.leaves = 1
	for i := 0; i < p.depth; i++ {
		p.leaves *= p.branch // at most 3^3 = 27 leaves
	}
	for i := 0; i < p.leaves; i++ {
		p.want += b(3+i) % 100
	}
	return p
}

// run executes the decoded program on rt and returns the accumulated
// total plus whether the fan-in slot fired.
func (p fuzzProgram) run(rt earth.Runtime) (int, bool) {
	_, total, done := p.runStats(rt)
	return total, done
}

// runStats is run plus the engine's stats, for fuzzers asserting on
// fault counters.
func (p fuzzProgram) runStats(rt earth.Runtime) (st *earth.Stats, total int, done bool) {
	b := func(i int) int {
		if len(p.data) == 0 {
			return 0
		}
		return int(p.data[i%len(p.data)])
	}
	st = rt.Run(func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, p.leaves, 0, 0)
		f.SetThread(0, func(earth.Ctx) { done = true })
		var descend func(c earth.Ctx, depth, idx int)
		descend = func(c earth.Ctx, depth, idx int) {
			if depth == 0 {
				v := b(3+idx) % 100
				c.Put(0, 8, func() { total += v }, f, 0)
				return
			}
			for i := 0; i < p.branch; i++ {
				child := idx*p.branch + i
				body := func(c earth.Ctx) { descend(c, depth-1, child) }
				switch b(40+child) % 3 {
				case 0:
					c.Invoke(earth.NodeID(b(80+child)%p.nodes), 8, body)
				case 1:
					c.Token(8, body)
				default:
					c.Post(earth.NodeID(b(80+child)%p.nodes), 8, body)
				}
			}
		}
		descend(c, p.depth, 0)
	})
	return st, total, done
}

// FuzzFramePrograms: any byte-derived frame/sync-slot DAG must complete
// on both engines with the precomputed result.
func FuzzFramePrograms(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{5, 3, 2, 40, 41, 42, 90, 17})
	f.Add([]byte{255, 3, 255, 0, 0, 0, 7, 7, 7, 7, 99, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		if got, done := p.run(simrt.New(earth.Config{Nodes: p.nodes, Seed: 1})); got != p.want || !done {
			t.Errorf("simrt: total=%d done=%v, want %d", got, done, p.want)
		}
		if got, done := p.run(newLive(earth.Config{Nodes: p.nodes, Seed: 1})); got != p.want || !done {
			t.Errorf("livert: total=%d done=%v, want %d", got, done, p.want)
		}
	})
}

// FuzzFaultRecovery: for any byte-derived program and any drop/dup/
// reorder plan within the supported envelope, the retry/dedup machinery
// must drive the simulated run to the fault-free result.
func FuzzFaultRecovery(f *testing.F) {
	f.Add(uint8(10), uint8(5), uint8(20), int64(3), []byte{1, 2, 3})
	f.Add(uint8(49), uint8(49), uint8(99), int64(7), []byte{5, 3, 2, 40, 41, 42})
	f.Add(uint8(0), uint8(0), uint8(0), int64(0), []byte{9})
	f.Fuzz(func(t *testing.T, drop, dup, reorder uint8, seed int64, data []byte) {
		p := decodeFuzzProgram(data)
		plan := &faults.Plan{
			Seed:    seed,
			Drop:    float64(drop%50) / 100,
			Dup:     float64(dup%50) / 100,
			Reorder: float64(reorder%100) / 100,
			Window:  100 * sim.Microsecond,
		}
		got, done := p.run(simrt.New(earth.Config{Nodes: p.nodes, Seed: 1, Faults: plan}))
		if got != p.want || !done {
			t.Errorf("faulted run: total=%d done=%v, want %d (plan %v)", got, done, p.want, plan)
		}
	})
}

// FuzzCrashRecovery: for any byte-derived program and any crash plan
// killing at most two distinct non-zero nodes of a ≥4-node machine, both
// engines must converge to the fault-free result.
func FuzzCrashRecovery(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint32(100), uint32(300), []byte{5, 3, 2, 40, 41, 42})
	f.Add(uint8(0), uint8(0), uint32(0), uint32(0), []byte{1, 2, 3})
	f.Add(uint8(3), uint8(3), uint32(50_000), uint32(700_000), []byte{255, 3, 255, 0, 7, 7, 99, 1})
	f.Fuzz(func(t *testing.T, nodeA, nodeB uint8, atA, atB uint32, data []byte) {
		p := decodeFuzzProgram(data)
		if p.nodes < 4 {
			p.nodes = 4 // a crashed machine needs survivors to adopt work
		}
		// Node 0 hosts the accumulator frame's sync fan-in result check,
		// so crashes target nodes 1..nodes-1; a duplicate victim collapses
		// to a single crash (crash-stop failures are permanent).
		a := 1 + int(nodeA)%(p.nodes-1)
		b := 1 + int(nodeB)%(p.nodes-1)
		plan := &faults.Plan{Seed: 1,
			Crash: []faults.Crash{{Node: a, At: sim.Time(atA % 800_000)}}}
		if b != a {
			plan.Crash = append(plan.Crash, faults.Crash{Node: b, At: sim.Time(atB % 800_000)})
		}
		if got, done := p.run(simrt.New(earth.Config{Nodes: p.nodes, Seed: 1, Faults: plan})); got != p.want || !done {
			t.Errorf("simrt crashed run: total=%d done=%v, want %d (plan %v)", got, done, p.want, plan)
		}
		if got, done := p.run(newLive(earth.Config{Nodes: p.nodes, Seed: 1, Faults: plan})); got != p.want || !done {
			t.Errorf("livert crashed run: total=%d done=%v, want %d (plan %v)", got, done, p.want, plan)
		}
	})
}
