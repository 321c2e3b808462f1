package enginetest

import (
	"bytes"
	"slices"
	"testing"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// Coalescing conformance: the batched wire path is a different cost
// model (one per-message overhead per batch instead of per message) but
// it must stay exactly as deterministic as the unbatched path. Coalescing
// off, on, and on under bodies that trip the coalescer's byte and count
// limits mid-body: the stats, trace and critical-path report must be
// byte-identical across repeated same-seed runs, on clean, chaotic and
// crash-stop scenarios alike.

// coalModes is the coalescing axis of the conformance table.
var coalModes = []struct {
	name string
	on   bool
	prog program
}{
	{"off", false, mixProg},
	// mixProg's bodies send a few messages each: batches ship at step
	// (body) boundaries, or before a Get/Invoke/placed Token to their
	// destination.
	{"step-flush", true, mixProg},
	// Every burst body trips both limits before it ends.
	{"size-threshold", true, tripProg},
}

// tripProg is the burst program for the coalescer's trip rule: every node
// but 0 sends node 0 twenty 8-byte puts, more than the 16 messages a
// batch holds, then two of 2048 bytes, which together reach its 4096-byte
// limit, then syncs into a fan-in slot.
func tripProg(nodes int, total *int, done *bool) (earth.ThreadBody, int) {
	var sizes []int
	for range 20 {
		sizes = append(sizes, 8)
	}
	sizes = append(sizes, 2048, 2048)
	want := 0
	for w := 1; w < nodes; w++ {
		want += w * len(sizes)
	}
	return func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, nodes-1, 0, 0)
		f.SetThread(0, func(earth.Ctx) { *done = true })
		for w := 1; w < nodes; w++ {
			c.Invoke(earth.NodeID(w), 8, func(c earth.Ctx) {
				for _, n := range sizes {
					c.Put(0, n, func() { *total += w }, nil, 0)
				}
				c.Sync(f, 0)
			})
		}
	}, want
}

// coalCases is the scenario axis: clean, chaos, crash-stop.
var coalCases = []struct {
	name string
	cfg  func() earth.Config
}{
	{"clean", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 21, Balancer: earth.BalanceSteal,
			UtilSamplePeriod: 50 * sim.Microsecond}
	}},
	{"chaos", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 22, Balancer: earth.BalanceSteal,
			Faults: &faults.Plan{Seed: 22, Drop: 0.08, Dup: 0.05, Reorder: 0.1,
				Window: 150 * sim.Microsecond}}
	}},
	{"crash", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 23, Balancer: earth.BalanceSteal,
			Faults: &faults.Plan{Seed: 23, Drop: 0.05, Dup: 0.02,
				Crash: []faults.Crash{
					{Node: 2, At: 150 * sim.Microsecond},
					{Node: 5, At: 400 * sim.Microsecond},
				}}}
	}},
}

// coalRun executes prog with coalescing on or off and returns the run,
// its rendered critical-path report and its EvBatchFlush events.
func coalRun(t *testing.T, cfg earth.Config, on bool, prog program) (out simOut, critTxt []byte, flushes []earth.Event) {
	t.Helper()
	cfg.Coalesce = earth.CoalesceConfig{Enabled: on}
	out = progRun(t, cfg, prog)
	for _, e := range out.evs {
		if e.Kind == earth.EvBatchFlush {
			flushes = append(flushes, e)
		}
	}
	crit := []byte(critpath.Analyze(out.evs, cfg.Nodes, out.st.Elapsed).Render(8))
	return out, crit, flushes
}

func TestCoalesceConformance(t *testing.T) {
	for _, mode := range coalModes {
		for _, tc := range coalCases {
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				base, baseCrit, flushes := coalRun(t, tc.cfg(), mode.on, mode.prog)
				if mode.on && len(flushes) == 0 {
					t.Error("coalescing enabled but no EvBatchFlush events emitted")
				}
				if !mode.on && len(flushes) > 0 {
					t.Errorf("coalescing off but %d EvBatchFlush events emitted", len(flushes))
				}
				if mode.name == "size-threshold" {
					// Event.Wait carries a flush's message count.
					full := slices.ContainsFunc(flushes, func(e earth.Event) bool { return e.Wait == 16 })
					big := slices.ContainsFunc(flushes, func(e earth.Event) bool { return e.Bytes >= 4096 })
					if !full || !big {
						t.Errorf("no batch tripped on its count (%v) or on its bytes (%v)", full, big)
					}
				}
				// Same-seed repeatability (the chaos/crash realisations are
				// part of the seed): a second run must be byte-identical.
				again, crit, _ := coalRun(t, tc.cfg(), mode.on, mode.prog)
				sameBytes(t, "repeated same-seed run", again, base)
				if !bytes.Equal(crit, baseCrit) {
					t.Errorf("repeated same-seed run: critpath report diverges\n got: %s\nwant: %s", crit, baseCrit)
				}
			})
		}
	}
}

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
