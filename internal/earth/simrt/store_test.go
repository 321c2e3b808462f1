package simrt

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
	"earth/internal/faults"
	"earth/internal/obs"
	"earth/internal/pin"
	"earth/internal/sim"
)

const storeTokens = 1000

// storageCells are the runs the store tests repeat: the storm on 20 nodes
// clean, traced with utilisation samples, coalesced under a plan that drops
// and duplicates, with two crashes, under a partition that fences its
// minority, and sanitized — every path that fills or empties a store.
func storageCells(t *testing.T) []struct {
	name string
	cfg  earth.Config
} {
	plan := func(spec string) *faults.Plan {
		p, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []struct {
		name string
		cfg  earth.Config
	}{
		{"clean", earth.Config{Nodes: 20, Seed: 1}},
		{"traced", earth.Config{Nodes: 20, Seed: 2, UtilSamplePeriod: 200 * sim.Microsecond}},
		{"coalesced", earth.Config{Nodes: 20, Seed: 3, Coalesce: earth.CoalesceConfig{Enabled: true},
			Faults: plan("drop=0.02,dup=0.05,reorder=0.05,corrupt=0.01")}},
		{"crash", earth.Config{Nodes: 20, Seed: 4, Faults: plan("crash=3@200us,crash=11@400us"),
			Retry: earth.RetryPolicy{Lease: 200 * sim.Microsecond}}},
		{"partition", earth.Config{Nodes: 20, Seed: 5, Retry: earth.RetryPolicy{Lease: 200 * sim.Microsecond},
			Faults: plan("partition=0.1.2.3.4.5.6.7.8.9.10.11.12.13|14.15.16.17.18.19@100us-800us")}},
		{"sanitized", earth.Config{Nodes: 20, Seed: 6, Sanitize: true}},
	}
}

// storeRun runs the storm under cfg with a Recorder attached and returns
// its stats and trace as JSON.
func storeRun(cfg earth.Config) (stats, trace []byte, st *earth.Stats) {
	rec := obs.NewRecorder()
	cfg.Tracer = rec
	st = New(cfg).Run(enginetest.StormProgram(cfg.Nodes, storeTokens))
	stats, err := json.Marshal(st)
	if err == nil {
		trace, err = json.Marshal(rec.Events())
	}
	if err != nil {
		panic(err)
	}
	return stats, trace, st
}

// freeFire matches the one reference a listed envelope keeps: its fire
// closure, which reads the envelope's rt only when called.
var freeFire = regexp.MustCompile(`^\.msgFree\[\d+\]\.fire$`)

// TestEngineStoragePinsNothing runs every storage cell, traced and not,
// and then walks the free list: no store may keep a reference to anything
// of the runs that used it — no envelope bound to a runtime or holding a
// body, no queued thread, no closure in the event heap or a coalescer, no
// stale slot past a slice's length — and every ring must be zero to its
// capacity. The runtimes, idle now, must hold no store and no sink into one.
func TestEngineStoragePinsNothing(t *testing.T) {
	for _, c := range storageCells(t) {
		for _, traced := range []bool{false, true} {
			cfg := c.cfg
			if traced {
				cfg.Tracer = obs.NewRecorder()
			}
			rt := New(cfg)
			rt.Run(enginetest.StormProgram(cfg.Nodes, storeTokens))
			if rt.store != nil || rt.sink.On() {
				t.Errorf("%s: the idle runtime holds its store (%v) or a sink into it (%v)", c.name, rt.store != nil, rt.sink.On())
			}
			for _, n := range rt.nodes {
				if n.lane != nil || n.acct.Sink.On() {
					t.Errorf("%s: idle node %d holds its lane or a sink", c.name, n.id)
				}
			}
		}
	}
	listed := stores.Listed()
	if len(listed) == 0 {
		t.Fatal("no store was given back")
	}
	for i, st := range listed {
		for _, p := range enginetest.Pins(st) {
			if !freeFire.MatchString(p) {
				t.Errorf("store %d pins %s", i, p)
			}
		}
		for _, m := range st.msgFree {
			if m.rt != nil {
				t.Errorf("store %d: a listed envelope is bound to a runtime", i)
			}
		}
		for k := range st.lanes {
			l := &st.lanes[k]
			if !enginetest.RingAtRest(&l.ready) || !enginetest.RingAtRest(&l.tokens) {
				t.Errorf("store %d: lane %d's ring is not zero to its capacity", i, k)
			}
		}
		if t0, queued := st.eng.Peek(); queued || st.eng.Now() != 0 || st.eng.Events != 0 {
			t.Errorf("store %d: the event heap was given back running (event at %v, clock %v, %d dispatched)", i, t0, st.eng.Now(), st.eng.Events)
		}
	}
}

// TestRunAllocBudget: once a store fits the storm, a second New+Run of the
// same 20-node storm allocates what New does, the program's own objects —
// per token the token closure, the thread closure, the fetched word and
// one frame — and a per-run remainder under four objects per node: Stats,
// and each node's thread context and random stream, which belong to the
// runtime and are made on first use. About 60 here; the parent commit,
// which grew every queue, envelope and the event heap in every runtime,
// measured 192, and one object per message would be thousands.
func TestRunAllocBudget(t *testing.T) {
	const nodes, tokens, perNode = 20, 2000, 4
	body := enginetest.StormProgram(nodes, tokens)
	cfg := earth.Config{Nodes: nodes, Seed: 1}
	New(cfg).Run(body)
	newOnly := testing.AllocsPerRun(10, func() { New(cfg) })
	whole := testing.AllocsPerRun(5, func() { New(cfg).Run(body) })
	if rest := whole - newOnly - 4*tokens; rest > perNode*nodes {
		t.Errorf("New+Run allocates %.0f objects beyond New's %.0f and the program's %d, budget %d", rest, newOnly, 4*tokens, perNode*nodes)
	} else {
		t.Logf("%.0f objects beyond New's %.0f and the program's %d", rest, newOnly, 4*tokens)
	}
}

// TestStorageReusedMatchesFresh runs each storage cell on an empty free
// list, as the first runtime of a process does, and again on a store
// reused after traced, coalesced and faulted runs of 3 and 33 nodes: the
// stats and the trace must be byte-identical. A store's capacities and
// leftovers must never reach a simulated byte.
func TestStorageReusedMatchesFresh(t *testing.T) {
	cells := storageCells(t)
	warm := []earth.Config{
		{Nodes: 3, Seed: 7, UtilSamplePeriod: 50 * sim.Microsecond},
		{Nodes: 3, Seed: 8, Coalesce: earth.CoalesceConfig{Enabled: true}, Faults: cells[2].cfg.Faults},
		{Nodes: 33, Seed: 9, Coalesce: earth.CoalesceConfig{Enabled: true}, Faults: cells[3].cfg.Faults,
			Retry: cells[3].cfg.Retry},
		{Nodes: 33, Seed: 10, Sanitize: true},
	}
	for _, c := range cells[:5] { // the sanitized cell adds no storage path
		t.Run(c.name, func(t *testing.T) {
			stores = earth.FreeList[store]{} // a new process's
			wantStats, wantTrace, st := storeRun(c.cfg)
			tot := st.Total()
			switch {
			case c.name == "crash" && tot.DetectionLatency == 0,
				c.name == "partition" && tot.WrongVerdicts == 0,
				c.name == "coalesced" && (tot.DupsDropped == 0 || tot.Retries == 0):
				t.Fatalf("the plan did not act on the run: %+v", tot)
			}
			for _, w := range warm {
				storeRun(w)
			}
			gotStats, gotTrace, _ := storeRun(c.cfg)
			if d := pin.FirstDiff(gotStats, wantStats); d != "" {
				t.Errorf("stats on a reused store diverge from a fresh one at %s", d)
			}
			if d := pin.FirstDiff(gotTrace, wantTrace); d != "" {
				t.Errorf("trace on a reused store diverges from a fresh one at %s", d)
			}
		})
	}
}

// TestConcurrentRuntimesShareNoStorage runs the storage cells on four
// goroutines at once, each runtime with its own tracer, and holds every
// run's stats and trace to the same cell run alone. Runtimes that shared a
// store would corrupt each other's queues and traces, and -race (the CI
// runs this test under it) would see their writes.
func TestConcurrentRuntimesShareNoStorage(t *testing.T) {
	cells := storageCells(t)
	want := make([][2][]byte, len(cells))
	for i, c := range cells {
		want[i][0], want[i][1], _ = storeRun(c.cfg)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(cells))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cells {
				i := (w + k) % len(cells)
				stats, trace, _ := storeRun(cells[i].cfg)
				if d := pin.FirstDiff(stats, want[i][0]); d != "" {
					errs <- fmt.Sprintf("%s, worker %d: stats diverge at %s", cells[i].name, w, d)
				}
				if d := pin.FirstDiff(trace, want[i][1]); d != "" {
					errs <- fmt.Sprintf("%s, worker %d: trace diverges at %s", cells[i].name, w, d)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
