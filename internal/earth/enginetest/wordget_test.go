package enginetest

import (
	"fmt"
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// Word Gets: on an engine context GetSyncF64 and GetSyncI64 move their
// word in the engine's message (earth.WordGetter), where GetSyncVal hands
// the engine a read closure and the store closure it returns. Nothing else
// may differ — not a message, a byte, an event or a result.

// getForm is one way of issuing the program's Gets.
type getForm struct {
	name string
	f64  func(c earth.Ctx, owner earth.NodeID, src, dst *float64, f *earth.Frame, slot int)
	i64  func(c earth.Ctx, owner earth.NodeID, src, dst *int, f *earth.Frame, slot int)
}

// getForms are the word path and the closure path with the same sizes.
var getForms = []getForm{
	{"word", earth.GetSyncF64, earth.GetSyncI64},
	{"closure",
		func(c earth.Ctx, owner earth.NodeID, src, dst *float64, f *earth.Frame, slot int) {
			earth.GetSyncVal(c, owner, earth.SizeF64, src, dst, f, slot)
		},
		func(c earth.Ctx, owner earth.NodeID, src, dst *int, f *earth.Frame, slot int) {
			earth.GetSyncVal(c, owner, earth.SizeI64, src, dst, f, slot)
		}},
}

// getResult is what getProg computed: node 0's sums of every fetched word.
// The float cells hold halves, so their sum is exact in any order.
type getResult struct {
	sumF float64
	sumI int
	done bool
}

// getProg is a Get-heavy program: every node owns a float64 and an int
// cell; invoked spreaders on every node issue perNode tokens each, and every
// token fetches one word of each type — from owners that depend on the
// token only, so some fetches are local — and, once both are in, computes
// for work and puts them into node 0's sums behind one fan-in slot. A token
// that fetched a wrong word computes a nanosecond longer, so the trace
// comparison names the first event a lost word moved, not only the sums.
func getProg(form getForm, res *getResult, nodes, spread, perNode int, work sim.Time) (earth.ThreadBody, getResult) {
	fcell, icell := make([]float64, nodes), make([]int, nodes)
	for n := range fcell {
		fcell[n], icell[n] = 0.5+float64(n), 1000*n+7
	}
	fOwner := func(v int) int { return v % nodes }
	iOwner := func(v int) int { return (3*v + 1) % nodes }
	want := getResult{done: true}
	for v := 0; v < spread*perNode; v++ {
		want.sumF += fcell[fOwner(v)]
		want.sumI += icell[iOwner(v)] + v
	}
	body := func(c earth.Ctx) {
		fin := earth.NewFrame(0, 1, 1)
		fin.InitSync(0, spread*perNode, 0, 0)
		fin.SetThread(0, func(earth.Ctx) { res.done = true })
		for s := 0; s < spread; s++ {
			c.Invoke(earth.NodeID(s%nodes), 8, func(c earth.Ctx) {
				for i := 0; i < perNode; i++ {
					v := s*perNode + i
					c.Token(8, func(c earth.Ctx) {
						var gf float64
						var gi int
						fo, io := fOwner(v), iOwner(v)
						g := earth.NewFrame(c.Node(), 1, 1)
						g.InitSync(0, 2, 0, 0)
						g.SetThread(0, func(c earth.Ctx) {
							c.Compute(work)
							if gf != fcell[fo] || gi != icell[io] {
								c.Compute(sim.Nanosecond)
							}
							x, y := gf, gi+v
							c.Put(0, 16, func() { res.sumF += x; res.sumI += y }, fin, 0)
						})
						form.f64(c, earth.NodeID(fo), &fcell[fo], &gf, g, 0)
						form.i64(c, earth.NodeID(io), &icell[io], &gi, g, 0)
					})
				}
			})
		}
	}
	return body, want
}

// getPlans are the fault axis of the word/closure table: a clean run, the
// message faults, crashes under duplicating message faults, a partition
// outliving the lease with corruption, and the composed all-classes plan.
//
// The crash row is the one where a duplicate's clone applies: a crash hold
// brings both copies to the same instant, and there the clone — routed
// first — fires first. Everywhere else the original fires first and the
// clone is discarded unread. So a simrt cloneMsg that drops the word fields
// fails the crash row and only it: a nil source panics, a lost word alone
// moves one thread by a nanosecond and the sums (EXPERIMENTS.md, "PR 25"
// and "PR 26").
var getPlans = []struct {
	name, spec string
	nodes      int
	work       sim.Time // leaf length: the run must outlast the plan
}{
	{"clean", "", 8, 60 * sim.Microsecond},
	{"drop+dup+reorder+corrupt", "drop=0.05,dup=0.2,reorder=0.1,corrupt=0.05,seed=3", 8, 60 * sim.Microsecond},
	{"crash+drop+dup", "crash=2@150µs,crash=5@400µs,drop=0.05,dup=0.2,seed=4", 8, 60 * sim.Microsecond},
	{"partition+corrupt", "partition=0.1|2.3@200µs-2500µs,corrupt=0.1,drop=0.05,seed=7", 4, 60 * sim.Microsecond},
	{"composed", composedSpec, 8, sim.Millisecond},
}

// TestWordGetMatchesClosureGet runs getProg through both Get forms. On
// simrt every cell of plan × coalesce × sanitize must produce the same
// stats JSON, trace and result bytes either way; on livert (clean, stealing
// off, so that the counts are the program's) the same results and counters.
func TestWordGetMatchesClosureGet(t *testing.T) {
	for _, gp := range getPlans {
		for _, coal := range []bool{false, true} {
			for _, san := range []bool{false, true} {
				t.Run(fmt.Sprintf("simrt/%s/%s/sanitize=%v", gp.name, coalName(coal), san), func(t *testing.T) {
					cfg := earth.Config{Nodes: gp.nodes, Seed: 11, Sanitize: san}
					if gp.spec != "" {
						plan, err := faults.Parse(gp.spec)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = plan
					}
					if coal {
						cfg.Coalesce = earth.CoalesceConfig{Enabled: true}
					}
					var outs [2]simOut
					var res [2]getResult
					for i, form := range getForms {
						body, want := getProg(form, &res[i], cfg.Nodes, 2*cfg.Nodes, 4, gp.work)
						outs[i] = simRun(t, cfg, body)
						if gp.spec == "" && res[i] != want {
							t.Errorf("%s: %+v, want %+v", form.name, res[i], want)
						}
					}
					sameBytes(t, "closure Gets", outs[1], outs[0])
					if res[0] != res[1] {
						t.Errorf("word Gets computed %+v, closure Gets %+v", res[0], res[1])
					}
				})
			}
		}
	}
	for _, coal := range []bool{false, true} {
		for _, san := range []bool{false, true} {
			t.Run(fmt.Sprintf("livert/clean/%s/sanitize=%v", coalName(coal), san), func(t *testing.T) {
				cfg := earth.Config{Nodes: 4, Seed: 11, Sanitize: san, Balancer: earth.BalanceNone}
				if coal {
					cfg.Coalesce = earth.CoalesceConfig{Enabled: true}
				}
				var counts [2][]earth.NodeStats
				for i, form := range getForms {
					var res getResult
					body, want := getProg(form, &res, cfg.Nodes, 2*cfg.Nodes, 4, 0)
					counts[i] = countFields(newLive(cfg).Run(body))
					if res != want {
						t.Errorf("%s: %+v, want %+v", form.name, res, want)
					}
				}
				if !slices.Equal(counts[0], counts[1]) {
					t.Errorf("counters differ:\n   word %+v\nclosure %+v", counts[0], counts[1])
				}
			})
		}
	}
}

// countFields returns a run's per-node counters without the fields the
// engines may legitimately disagree on: Busy is modelled time on simrt and
// wall time on livert, and stealing is a message protocol on simrt and a
// shared-memory pop on livert (every parity program runs with it off).
func countFields(st *earth.Stats) []earth.NodeStats {
	out := slices.Clone(st.Nodes)
	for i := range out {
		out[i].Busy, out[i].TokensStolen = 0, 0
	}
	return out
}

// ringProg is a dependency chain: a value travels the ring for hops hops.
// At each node it fetches both of the previous node's cells, and once both
// words are in it puts their sum plus one into the next node's cells, posts
// a note to node 0 and, when the put is acknowledged, invokes the next hop
// there. out receives the last value.
func ringProg(form getForm, nodes, hops int, out *int) earth.ThreadBody {
	fcell, icell := make([]float64, nodes), make([]int, nodes)
	var hop func(c earth.Ctx, k int)
	hop = func(c earth.Ctx, k int) {
		n := int(c.Node())
		if k == hops {
			*out = icell[n]
			return
		}
		prev, next := (n+nodes-1)%nodes, (n+1)%nodes
		var gf float64
		var gi int
		f := earth.NewFrame(c.Node(), 1, 1)
		f.InitSync(0, 2, 0, 0)
		f.SetThread(0, func(c earth.Ctx) {
			v := gi + int(gf) + 1
			acked := earth.NewFrame(c.Node(), 1, 1)
			acked.InitSync(0, 1, 0, 0)
			acked.SetThread(0, func(c earth.Ctx) {
				c.Invoke(earth.NodeID(next), 16, func(c earth.Ctx) { hop(c, k+1) })
			})
			c.Put(earth.NodeID(next), 16, func() { icell[next], fcell[next] = v, float64(v) }, acked, 0)
			c.Post(0, 8, func(earth.Ctx) {})
		})
		form.f64(c, earth.NodeID(prev), &fcell[prev], &gf, f, 0)
		form.i64(c, earth.NodeID(prev), &icell[prev], &gi, f, 0)
	}
	return func(c earth.Ctx) { hop(c, 0) }
}

// parityNodes is the machine size of the parity programs.
const parityNodes = 4

// parityPrograms are deterministic programs for the cross-engine parity
// tests: each returns the run's stats and its result as text. Between them
// they issue local and remote Put, Get, GetWord, Invoke, Post, Sync and
// tokens; a token's work depends only on its index, and each node deals
// its tokens in multiples of parityNodes, so round-robin placement sends
// the same tokens to the same nodes whatever order a node's bodies run in.
var parityPrograms = []struct {
	name string
	run  func(rt earth.Runtime, form getForm) (*earth.Stats, string)
}{
	{"ring", func(rt earth.Runtime, form getForm) (*earth.Stats, string) {
		var out int
		st := rt.Run(ringProg(form, parityNodes, 3*parityNodes+1, &out))
		return st, fmt.Sprint(out)
	}},
	{"fan-in", func(rt earth.Runtime, form getForm) (*earth.Stats, string) {
		var res getResult
		body, _ := getProg(form, &res, parityNodes, 2*parityNodes, parityNodes, 0)
		st := rt.Run(body)
		return st, fmt.Sprintf("%+v", res)
	}},
}

// parityBalancers are the balancers the parity programs' traces are
// compared under: tokens pooled where they were made, or placed round-robin.
var parityBalancers = []struct {
	name string
	b    earth.Balancer
}{{"pooled", earth.BalanceNone}, {"round-robin", earth.BalanceRoundRobin}}

// TestCounterParity: for deterministic programs with stealing off, the two
// engines count the same threads, tokens, messages, bytes and sync signals
// on every node — whichever Get form the program uses. Only the fields
// countFields drops may differ.
func TestCounterParity(t *testing.T) {
	for _, p := range parityPrograms {
		t.Run(p.name, func(t *testing.T) {
			var base []earth.NodeStats
			var baseRes, baseName string
			for _, form := range getForms {
				for _, eng := range bothEngines {
					st, res := p.run(eng.new(earth.Config{Nodes: parityNodes, Seed: 5, Balancer: earth.BalanceNone}), form)
					name := eng.name + "/" + form.name
					if st.Total().MsgsSent == 0 {
						t.Fatalf("%s: no message counted", name)
					}
					got := countFields(st)
					if base == nil {
						base, baseRes, baseName = got, res, name
						continue
					}
					if res != baseRes {
						t.Errorf("%s computed %s, %s %s", name, res, baseName, baseRes)
					}
					for i := range got {
						if got[i] != base[i] {
							t.Errorf("node %d: %s counts\n%+v\n%s counts\n%+v", i, name, got[i], baseName, base[i])
						}
					}
				}
			}
		})
	}
}

// traceExcluded are the event kinds TestTraceParity does not compare, each
// with its reason. Every other kind either engine emits on these programs
// is accounted through earth.NodeAcct and must match.
var traceExcluded = map[earth.EventKind]string{
	earth.EvHandlerRun: "livert runs every runtime message (sync, put, both Get legs) as a handler; simrt runs only Post bodies on the handler path",
}

// traceKey is what TestTraceParity compares of one event: times are virtual
// on simrt and wall-clock on livert, so Time, Dur and Wait are left out.
type traceKey struct {
	Kind  earth.EventKind
	Peer  earth.NodeID
	Bytes int
	Cause earth.Cause
}

// nodeTraces returns the multiset of keys of evs, per node.
func nodeTraces(evs []earth.Event) map[earth.NodeID]map[traceKey]int {
	out := map[earth.NodeID]map[traceKey]int{}
	for _, e := range evs {
		if _, ok := traceExcluded[e.Kind]; ok {
			continue
		}
		if out[e.Node] == nil {
			out[e.Node] = map[traceKey]int{}
		}
		out[e.Node][traceKey{e.Kind, e.Peer, e.Bytes, e.Cause}]++
	}
	return out
}

// TestTraceParity: for the parity programs, with tokens pooled or placed
// round-robin, the two engines trace the same operations on every node —
// the same multiset of (kind, peer, bytes, cause) for every kind but the
// excluded ones — and between them the runs trace every issue, delivery,
// signal and run kind the programs' operations have.
func TestTraceParity(t *testing.T) {
	want := []earth.EventKind{earth.EvThreadRun, earth.EvSyncSignal,
		earth.EvGetSend, earth.EvGetDeliver, earth.EvPutSend, earth.EvPutDeliver,
		earth.EvInvokeSend, earth.EvInvokeDeliver, earth.EvPostSend,
		earth.EvTokenSpawn, earth.EvTokenDeliver}
	seen := map[earth.EventKind]bool{}
	for _, p := range parityPrograms {
		for _, bal := range parityBalancers {
			for _, form := range getForms {
				t.Run(p.name+"/"+bal.name+"/"+form.name, func(t *testing.T) {
					var base map[earth.NodeID]map[traceKey]int
					var baseName string
					for _, eng := range bothEngines {
						col := &traceCollector{}
						p.run(eng.new(earth.Config{Nodes: parityNodes, Seed: 5, Balancer: bal.b, Tracer: col}), form)
						got := nodeTraces(col.evs)
						for _, e := range col.evs {
							seen[e.Kind] = true
						}
						if base == nil {
							base, baseName = got, eng.name
							continue
						}
						for n := earth.NodeID(0); n < parityNodes; n++ {
							for k, c := range got[n] {
								if base[n][k] != c {
									t.Errorf("node %d: %s traces %d of %+v, %s %d", n, eng.name, c, k, baseName, base[n][k])
								}
							}
							for k, c := range base[n] {
								if _, ok := got[n][k]; !ok {
									t.Errorf("node %d: %s traces none of %+v, %s %d", n, eng.name, k, baseName, c)
								}
							}
						}
					}
				})
			}
		}
	}
	for _, k := range want {
		if !seen[k] {
			t.Errorf("no run traced a %v event", k)
		}
	}
}
