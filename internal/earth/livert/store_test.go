package livert

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
	"earth/internal/faults"
	"earth/internal/obs"
	"earth/internal/sim"
)

const storeTokens = 1000

// storageCells are the runs the store tests repeat: the storm on 20 nodes
// clean, coalesced, coalesced under a plan that drops and duplicates, with
// two crashes, under a partition that fences its minority, traced and
// sanitized. The clean and coalesced cells pool every token on node 0
// (BalanceNone), so their counters do not depend on the host's schedule.
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
		{"clean", earth.Config{Nodes: 20, Seed: 1, Balancer: earth.BalanceNone}},
		{"coalesced", earth.Config{Nodes: 20, Seed: 3, Balancer: earth.BalanceNone,
			Coalesce: earth.CoalesceConfig{Enabled: true}}},
		{"chaos", earth.Config{Nodes: 20, Seed: 3, Coalesce: earth.CoalesceConfig{Enabled: true},
			Faults: plan("drop=0.02,dup=0.05,reorder=0.05")}},
		{"crash", earth.Config{Nodes: 20, Seed: 4, Faults: plan("crash=3@200us,crash=11@400us"),
			Retry: earth.RetryPolicy{Lease: 300 * sim.Microsecond}}},
		{"partition", earth.Config{Nodes: 20, Seed: 5, Retry: earth.RetryPolicy{Lease: 200 * sim.Microsecond},
			Faults: plan("partition=0.1.2.3.4.5.6.7.8.9.10.11.12.13|14.15.16.17.18.19@100us-2ms")}},
		{"traced", earth.Config{Nodes: 20, Seed: 2, Tracer: obs.NewRecorder()}},
		{"sanitized", earth.Config{Nodes: 20, Seed: 6, Sanitize: true}},
	}
}

// storeRun runs the storm under cfg behind the leak check and returns its
// stats and the events a Recorder got.
func storeRun(cfg earth.Config) (*earth.Stats, []earth.Event) {
	rec := obs.NewRecorder()
	cfg.Tracer = rec
	st := runChecked(New(cfg), enginetest.StormProgram(cfg.Nodes, storeTokens))
	return st, rec.Events()
}

// idleTimer matches the two references a given-back lane keeps: its
// stopped idle-wait timer's channel and its executor's profiler label set,
// which holds the lane's node id and nothing of a run.
var idleTimer = regexp.MustCompile(`^\.lanes\[\d+\]\.(idle\.C|labels)$`)

// TestEngineStoragePinsNothing runs every storage cell and then walks the
// free list: no store may keep a reference to anything of the runs that
// used it — no queued handler, thread or token, no envelope in a batch, no
// closure in a coalescer, no stale slot past a slice's length — and every
// ring must be zero to its capacity. The runtimes, idle now, must hold no
// store and no lane, and a hand-off must have left each down node's rings
// in its own lane.
func TestEngineStoragePinsNothing(t *testing.T) {
	for _, c := range storageCells(t) {
		rt := New(c.cfg)
		runChecked(rt, enginetest.StormProgram(c.cfg.Nodes, storeTokens))
		if rt.store != nil {
			t.Errorf("%s: the idle runtime holds its store", c.name)
		}
		for _, n := range rt.nodes {
			if n.lane != nil {
				t.Errorf("%s: idle node %d holds its lane", c.name, n.id)
			}
		}
	}
	listed := stores.Listed()
	if len(listed) == 0 {
		t.Fatal("no store was given back")
	}
	for i, st := range listed {
		for _, p := range enginetest.Pins(st) {
			if !idleTimer.MatchString(p) {
				t.Errorf("store %d pins %s", i, p)
			}
		}
		for k := range st.lanes {
			l := &st.lanes[k]
			if !enginetest.RingAtRest(&l.handlers) || !enginetest.RingAtRest(&l.ready) || !enginetest.RingAtRest(&l.tokens) {
				t.Errorf("store %d: lane %d's ring is not zero to its capacity", i, k)
			}
		}
	}
}

// TestRunAllocBudget: once a store fits the storm, a second New+Run of the
// same 20-node storm allocates what New does, the program's own objects —
// per token the token closure, the thread closure, the fetched word and
// one frame — and a per-run remainder under five objects per node: each
// executor's goroutine, Stats, the done channel, and the node's random
// stream, which belongs to the runtime. 85 here. Profiler labels built
// for every executor on every Run, not once per lane, made it 145; rings
// grown in every runtime and a timer made for every idle wait made it 466
// to 480; and one object per message would be thousands.
func TestRunAllocBudget(t *testing.T) {
	const nodes, tokens, perNode = 20, 2000, 5
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

// untimed is what a livert run's outcome is up to its host's schedule:
// per node, the counters without Busy and detection latency, and the
// events as a sorted multiset of (node, kind, cause, peer, bytes).
func untimed(st *earth.Stats, evs []earth.Event) ([]earth.NodeStats, []earth.Event) {
	nodes := slices.Clone(st.Nodes)
	for i := range nodes {
		nodes[i].Busy, nodes[i].DetectionLatency = 0, 0
	}
	kept := make([]earth.Event, len(evs))
	for i, e := range evs {
		kept[i] = earth.Event{Node: e.Node, Kind: e.Kind, Cause: e.Cause, Peer: e.Peer, Bytes: e.Bytes}
	}
	slices.SortFunc(kept, func(a, b earth.Event) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Cause, b.Cause),
			cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Bytes, b.Bytes))
	})
	return nodes, kept
}

// wrongOutcome says what is wrong with the outcome of a storage cell's run,
// "" for nothing: every token must run exactly once, except under the
// partition plan, which fences its minority and may lose what it held, but
// must fence.
func wrongOutcome(name string, st *earth.Stats) string {
	tot := st.Total()
	if name == "partition" && tot.WrongVerdicts == 0 || name != "partition" && tot.TokensRun != storeTokens {
		return fmt.Sprintf("%s: %d of %d tokens run, %d wrong verdicts", name, tot.TokensRun, storeTokens, tot.WrongVerdicts)
	}
	return ""
}

// TestStorageReusedMatchesFresh runs each storage cell on an empty free
// list, as the first runtime of a process does, and again on a store
// reused after coalesced and faulted runs of 3 and 33 nodes. A livert
// run's times and interleaving are the host's, so what must agree is the
// rest: the clean and coalesced cells' counters and traced events (without
// times), and every cell's outcome (wrongOutcome), with nothing left
// behind (runChecked).
func TestStorageReusedMatchesFresh(t *testing.T) {
	cells := storageCells(t)
	warm := []earth.Config{
		{Nodes: 3, Seed: 7},
		{Nodes: 3, Seed: 8, Coalesce: earth.CoalesceConfig{Enabled: true}, Faults: cells[2].cfg.Faults},
		{Nodes: 33, Seed: 9, Coalesce: earth.CoalesceConfig{Enabled: true}, Faults: cells[3].cfg.Faults,
			Retry: cells[3].cfg.Retry},
	}
	for _, c := range cells[:5] {
		t.Run(c.name, func(t *testing.T) {
			stores = earth.FreeList[store]{} // a new process's
			st, evs := storeRun(c.cfg)
			if msg := wrongOutcome(c.name, st); msg != "" {
				t.Fatalf("fresh store: %s", msg)
			}
			wantNodes, wantEvents := untimed(st, evs)
			for _, w := range warm {
				storeRun(w)
			}
			st, evs = storeRun(c.cfg)
			if msg := wrongOutcome(c.name, st); msg != "" {
				t.Errorf("reused store: %s", msg)
			}
			if c.cfg.Balancer != earth.BalanceNone {
				return
			}
			gotNodes, gotEvents := untimed(st, evs)
			if !slices.Equal(gotNodes, wantNodes) {
				t.Errorf("counters on a reused store\n%+v\non a fresh one\n%+v", gotNodes, wantNodes)
			}
			if !slices.Equal(gotEvents, wantEvents) {
				t.Errorf("a reused store traced %d events, a fresh one %d, or they differ", len(gotEvents), len(wantEvents))
			}
		})
	}
}

// TestConcurrentRuntimesShareNoStorage runs the storage cells on four
// goroutines at once, each behind the leak check: every runtime must take
// a store of its own, which -race (the CI runs this test under it) checks
// — two runs sharing one would race on its rings — and every run's
// outcome must be right (wrongOutcome).
func TestConcurrentRuntimesShareNoStorage(t *testing.T) {
	cells := storageCells(t)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(cells))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cells {
				c := cells[(w+k)%len(cells)]
				st, _ := storeRun(c.cfg)
				if msg := wrongOutcome(c.name, st); msg != "" {
					errs <- fmt.Sprintf("worker %d: %s", w, msg)
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
