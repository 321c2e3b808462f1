package enginetest

import (
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// coalBurst is a byte-derived burst program: every worker node sends a
// run of small puts to a node-0 per-sender sequence log, then syncs into
// a fan-in slot. Whatever the bytes say, each sender's payloads must
// arrive exactly once, and (absent faults) in issue order — coalesced or
// not.
type coalBurst struct {
	nodes  int
	counts []int // puts issued by worker w (index 0 unused)
}

func decodeCoalBurst(data []byte) coalBurst {
	b := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	p := coalBurst{nodes: 2 + b(0)%5}
	p.counts = make([]int, p.nodes)
	for w := 1; w < p.nodes; w++ {
		p.counts[w] = 1 + b(w)%40 // past the 16 messages a batch holds
	}
	return p
}

// run executes the burst and returns each sender's delivered payload
// sequence plus whether the fan-in fired.
func (p coalBurst) run(cfg earth.Config) (seqs [][]int, done bool) {
	seqs = make([][]int, p.nodes)
	rt := simrt.New(cfg)
	rt.Run(func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, p.nodes-1, 0, 0)
		f.SetThread(0, func(earth.Ctx) { done = true })
		for w := 1; w < p.nodes; w++ {
			w := w
			c.Invoke(earth.NodeID(w), 8, func(c earth.Ctx) {
				for i := 0; i < p.counts[w]; i++ {
					v := w*1000 + i
					c.Put(0, 4, func() { seqs[w] = append(seqs[w], v) }, nil, 0)
				}
				c.Sync(f, 0)
			})
		}
	})
	return seqs, done
}

// FuzzCoalescedDelivery: for any byte-derived burst schedule and any
// drop/dup plan within the supported envelope, the coalesced run must
// deliver exactly the payload sequences of the uncoalesced run —
// per-sender exactly-once always, and byte-for-byte in issue order when no
// faults perturb timing (retries may legally reorder independent
// messages, so faulted runs compare the sorted sequences).
func FuzzCoalescedDelivery(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{3, 5, 7})
	f.Add(uint8(10), uint8(5), []byte{255, 9, 2, 4})
	f.Add(uint8(49), uint8(49), []byte{})
	f.Add(uint8(0), uint8(20), []byte{4, 20, 35, 39, 16})
	f.Fuzz(func(t *testing.T, drop, dup uint8, data []byte) {
		p := decodeCoalBurst(data)
		var plan *faults.Plan
		if drop%50 > 0 || dup%50 > 0 {
			plan = &faults.Plan{Seed: 9, Drop: float64(drop%50) / 100,
				Dup: float64(dup%50) / 100, Window: 120 * sim.Microsecond}
		}
		base := earth.Config{Nodes: p.nodes, Seed: 1, Faults: plan}
		plain, plainDone := p.run(base)
		coalCfg := base
		coalCfg.Coalesce = earth.CoalesceConfig{Enabled: true}
		coal, coalDone := p.run(coalCfg)
		if !plainDone || !coalDone {
			t.Fatalf("fan-in never fired: plain=%v coalesced=%v", plainDone, coalDone)
		}
		for w := 1; w < p.nodes; w++ {
			if plan == nil {
				if !slices.Equal(coal[w], plain[w]) {
					t.Errorf("sender %d: coalesced sequence %v != uncoalesced %v", w, coal[w], plain[w])
				}
				continue
			}
			a := slices.Clone(plain[w])
			b := slices.Clone(coal[w])
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Errorf("sender %d under %v: delivered sets differ: %v vs %v", w, plan, b, a)
			}
		}
	})
}
