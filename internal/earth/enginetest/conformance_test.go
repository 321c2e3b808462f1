package enginetest

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
)

// Cross-engine conformance: the same EARTH program must compute the same
// result on the discrete-event simulator and on the live threaded
// runtime, and — for chain-structured programs, where the dependency
// graph forces a total order — emit the same sequence of wire-level
// trace events modulo timestamps.
//
// Only event kinds with engine-independent semantics take part in the
// sequence comparison. The steal protocol, handler dispatches and invoke
// deliveries are excluded: their count and interleaving legitimately
// depend on each engine's scheduler.

var conformanceKinds = map[earth.EventKind]bool{
	earth.EvSyncSignal: true,
	earth.EvGetSend:    true,
	earth.EvGetDeliver: true,
	earth.EvPutSend:    true,
	earth.EvPutDeliver: true,
	earth.EvInvokeSend: true,
	earth.EvPostSend:   true,
	earth.EvTokenSpawn: true,
}

// wireEvent is the timestamp-free projection of an Event used for
// cross-engine comparison.
type wireEvent struct {
	Kind  earth.EventKind
	Node  earth.NodeID
	Peer  earth.NodeID
	Bytes int
}

func (w wireEvent) String() string {
	return fmt.Sprintf("%v node=%d peer=%d bytes=%d", w.Kind, w.Node, w.Peer, w.Bytes)
}

func normalizeTrace(evs []earth.Event) []wireEvent {
	var out []wireEvent
	for _, e := range evs {
		if conformanceKinds[e.Kind] {
			out = append(out, wireEvent{Kind: e.Kind, Node: e.Node, Peer: e.Peer, Bytes: e.Bytes})
		}
	}
	return out
}

// traceCollector is a race-safe Tracer (livert emits concurrently).
type traceCollector struct {
	mu  sync.Mutex
	evs []earth.Event
}

func (tc *traceCollector) Event(e earth.Event) {
	tc.mu.Lock()
	tc.evs = append(tc.evs, e)
	tc.mu.Unlock()
}

// confCase is one conformance program. make builds fresh program state
// per engine and returns the thread body plus a result check.
type confCase struct {
	name  string
	nodes int
	// chain marks programs whose dependency structure is a single
	// sequential chain, making the wire-event order deterministic on
	// both engines and therefore comparable.
	chain bool
	make  func() (func(earth.Ctx), func(t *testing.T, engine string))
}

var conformanceCases = []confCase{
	{
		name: "invoke-put-chain", nodes: 4, chain: true,
		make: func() (func(earth.Ctx), func(*testing.T, string)) {
			var path []earth.NodeID
			result := 0
			prog := func(c earth.Ctx) {
				c.Invoke(1, 16, func(c earth.Ctx) {
					path = append(path, c.Node())
					c.Invoke(2, 16, func(c earth.Ctx) {
						path = append(path, c.Node())
						c.Invoke(3, 16, func(c earth.Ctx) {
							path = append(path, c.Node())
							c.Put(0, 8, func() { result = 42 }, nil, 0)
						})
					})
				})
			}
			return prog, func(t *testing.T, eng string) {
				if !slices.Equal(path, []earth.NodeID{1, 2, 3}) || result != 42 {
					t.Errorf("%s: path=%v result=%d", eng, path, result)
				}
			}
		},
	},
	{
		name: "get-sync-chain", nodes: 3, chain: true,
		make: func() (func(earth.Ctx), func(*testing.T, string)) {
			a, b := 11, 31 // data conceptually owned by nodes 1 and 2
			var ga, gb int
			sum := 0
			prog := func(c earth.Ctx) {
				f := earth.NewFrame(0, 2, 2)
				f.InitSync(0, 1, 0, 0)
				f.InitSync(1, 1, 0, 1)
				f.SetThread(0, func(c earth.Ctx) {
					earth.GetSyncI64(c, 2, &b, &gb, f, 1)
				})
				f.SetThread(1, func(earth.Ctx) { sum = ga + gb })
				earth.GetSyncI64(c, 1, &a, &ga, f, 0)
			}
			return prog, func(t *testing.T, eng string) {
				if sum != 42 {
					t.Errorf("%s: got %d+%d=%d, want 42", eng, ga, gb, sum)
				}
			}
		},
	},
	{
		name: "blkmov-chain", nodes: 3, chain: true,
		make: func() (func(earth.Ctx), func(*testing.T, string)) {
			const n = 64
			var src [n]float64 // owned by node 1
			for i := range src {
				src[i] = float64(i) * 0.5
			}
			var local, out [n]float64 // out is owned by node 2
			done := false
			prog := func(c earth.Ctx) {
				f := earth.NewFrame(0, 2, 2)
				f.InitSync(0, 1, 0, 0)
				f.InitSync(1, 1, 0, 1)
				f.SetThread(0, func(c earth.Ctx) {
					earth.DataSyncVal(c, 2, n*earth.SizeF64, local, &out, f, 1)
				})
				f.SetThread(1, func(earth.Ctx) { done = true })
				earth.GetSyncVal(c, 1, n*earth.SizeF64, &src, &local, f, 0)
			}
			return prog, func(t *testing.T, eng string) {
				if !done || out != src {
					t.Errorf("%s: block not moved end to end (done=%v)", eng, done)
				}
			}
		},
	},
	{
		name: "post-chain", nodes: 3, chain: true,
		make: func() (func(earth.Ctx), func(*testing.T, string)) {
			var hops []earth.NodeID
			prog := func(c earth.Ctx) {
				c.Post(1, 8, func(c earth.Ctx) {
					hops = append(hops, c.Node())
					c.Post(2, 8, func(c earth.Ctx) {
						hops = append(hops, c.Node())
						c.Post(0, 8, func(c earth.Ctx) {
							hops = append(hops, c.Node())
						})
					})
				})
			}
			return prog, func(t *testing.T, eng string) {
				if !slices.Equal(hops, []earth.NodeID{1, 2, 0}) {
					t.Errorf("%s: hops = %v", eng, hops)
				}
			}
		},
	},
	{
		name: "sync-fan-in", nodes: 4, chain: false,
		make: func() (func(earth.Ctx), func(*testing.T, string)) {
			count := 0
			done := false
			prog := func(c earth.Ctx) {
				f := earth.NewFrame(0, 1, 1)
				f.InitSync(0, 12, 0, 0)
				f.SetThread(0, func(earth.Ctx) { done = true })
				for i := 0; i < 12; i++ {
					c.Invoke(earth.NodeID(i%4), 8, func(c earth.Ctx) {
						c.Put(0, 8, func() { count++ }, f, 0)
					})
				}
			}
			return prog, func(t *testing.T, eng string) {
				if !done || count != 12 {
					t.Errorf("%s: done=%v count=%d", eng, done, count)
				}
			}
		},
	},
	{
		name: "token-tree", nodes: 4, chain: false,
		make: func() (func(earth.Ctx), func(*testing.T, string)) {
			total := 0
			var split func(c earth.Ctx, lo, hi int)
			split = func(c earth.Ctx, lo, hi int) {
				if hi-lo <= 2 {
					s := 0
					for v := lo; v < hi; v++ {
						s += v
					}
					c.Put(0, 8, func() { total += s }, nil, 0)
					return
				}
				mid := (lo + hi) / 2
				c.Token(16, func(c earth.Ctx) { split(c, lo, mid) })
				c.Token(16, func(c earth.Ctx) { split(c, mid, hi) })
			}
			prog := func(c earth.Ctx) { split(c, 1, 33) }
			return prog, func(t *testing.T, eng string) {
				if want := 32 * 33 / 2; total != want {
					t.Errorf("%s: sum = %d, want %d", eng, total, want)
				}
			}
		},
	},
}

func TestConformanceSuite(t *testing.T) {
	for _, cse := range conformanceCases {
		t.Run(cse.name, func(t *testing.T) {
			traces := map[string][]wireEvent{}
			for _, eng := range []string{"simrt", "livert"} {
				col := &traceCollector{}
				// Sanitize is on by default in conformance runs: every
				// program here must be sync-contract clean on both engines.
				cfg := earth.Config{Nodes: cse.nodes, Seed: 7, Tracer: col, Sanitize: true}
				var rt earth.Runtime
				if eng == "simrt" {
					rt = simrt.New(cfg)
				} else {
					rt = newLive(cfg)
				}
				prog, check := cse.make()
				st := rt.Run(prog)
				check(t, eng)
				if !st.Sanitize.Clean() {
					t.Errorf("%s: sanitizer findings:\n%s", eng, st.Sanitize)
				}
				traces[eng] = normalizeTrace(col.evs)
			}
			if !cse.chain {
				return
			}
			a, b := traces["simrt"], traces["livert"]
			if !slices.Equal(a, b) {
				t.Errorf("wire-event sequences diverge:\nsimrt:  %v\nlivert: %v", a, b)
			}
		})
	}
}
