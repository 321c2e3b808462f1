package livert

import (
	"sync"
	"testing"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// traceCount is a thread-safe tracer counting events by kind (livert
// emits concurrently).
type traceCount struct {
	mu sync.Mutex
	n  map[earth.EventKind]int
}

func (t *traceCount) Event(e earth.Event) {
	t.mu.Lock()
	if t.n == nil {
		t.n = map[earth.EventKind]int{}
	}
	t.n[e.Kind]++
	t.mu.Unlock()
}

func TestCoalescedDeliveryLive(t *testing.T) {
	// Puts, syncs and posts issued by one body to the same destination
	// must all apply with coalescing enabled: payloads intact, sync slots
	// fired, handlers run — and EvBatchFlush must appear in the trace.
	tr := &traceCount{}
	rt := New(earth.Config{Nodes: 4, Seed: 1, Tracer: tr,
		Coalesce: earth.CoalesceConfig{Enabled: true}})
	const puts = 8
	sink := make([]float64, puts)
	var postRan [4]bool
	joined := false
	runChecked(rt, func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, 3, 0, 0)
		f.SetThread(0, func(earth.Ctx) { joined = true })
		for w := 1; w < 4; w++ {
			w := w
			c.Invoke(earth.NodeID(w), 8, func(c earth.Ctx) {
				for i := w; i < puts; i += 3 {
					i := i
					earth.DataSyncF64(c, 0, float64(i), &sink[i], nil, 0)
				}
				c.Post(0, 8, func(earth.Ctx) { postRan[w] = true })
				c.Sync(f, 0)
			})
		}
	})
	for i := 1; i < puts; i++ {
		if sink[i] != float64(i) {
			t.Fatalf("sink[%d] = %v, want %d", i, sink[i], i)
		}
	}
	for w := 1; w < 4; w++ {
		if !postRan[w] {
			t.Fatalf("post from worker %d never ran", w)
		}
	}
	if !joined {
		t.Fatal("coalesced syncs did not fire the join slot")
	}
	tr.mu.Lock()
	flushes := tr.n[earth.EvBatchFlush]
	tr.mu.Unlock()
	if flushes == 0 {
		t.Fatal("no EvBatchFlush events emitted")
	}
}

func TestCoalescedDeliveryUnderFaults(t *testing.T) {
	// A batch traverses the injector as one message: under a chaotic plan
	// every buffered operation must still apply exactly once (the dedup
	// wrapper covers the whole composite handler), so the reduction
	// computes the fault-free answer. Each body sends 20 puts, so its
	// buffer trips on the 16-message limit before the body ends.
	plan := &faults.Plan{Seed: 11, Drop: 0.08, Dup: 0.05, Reorder: 0.1,
		Window: 150 * sim.Microsecond}
	rt := New(earth.Config{Nodes: 4, Seed: 3, Faults: plan,
		Coalesce: earth.CoalesceConfig{Enabled: true}})
	total := 0
	const n, puts = 32, 20
	st := runChecked(rt, func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, n, 0, 0)
		f.SetThread(0, func(earth.Ctx) {})
		for i := 1; i <= n; i++ {
			c.Invoke(earth.NodeID(i%4), 8, func(c earth.Ctx) {
				for range puts {
					c.Put(0, 8, func() { total += i }, nil, 0)
				}
				c.Sync(f, 0)
			})
		}
	})
	if want := puts * n * (n + 1) / 2; total != want {
		t.Fatalf("total = %d, want %d (batched ops lost or doubled under faults)", total, want)
	}
	if st.Total().FaultsInjected == 0 {
		t.Error("fault plan never fired (test exercises nothing)")
	}
}
