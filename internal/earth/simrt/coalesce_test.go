package simrt

import (
	"testing"

	"earth/internal/earth"
	"earth/internal/sim"
)

func coalCfg(nodes int) earth.Config {
	return earth.Config{Nodes: nodes, Seed: 1,
		Coalesce: earth.CoalesceConfig{Enabled: true}}
}

func TestCoalesceSinglePutEqualsUnbatched(t *testing.T) {
	// A 1-message batch must cost exactly what the unbatched message costs
	// today: CopyCost at issue + AsyncSend at flush == SendCost, same wire
	// bytes (payload + one header), same receiver overhead. Use an MP cost
	// model so CopyPerByte is nonzero and the split actually matters.
	run := func(coal bool) (sim.Time, uint64) {
		var sink float64
		rt := New(earth.Config{Nodes: 2, Seed: 1,
			Costs:    earth.MessagePassingCosts(300 * sim.Microsecond),
			Coalesce: earth.CoalesceConfig{Enabled: coal}})
		st := rt.Run(func(c earth.Ctx) {
			earth.DataSyncF64(c, 1, 4.25, &sink, nil, 0)
		})
		if sink != 4.25 {
			t.Fatalf("put not delivered, sink = %v", sink)
		}
		return st.Elapsed, st.Nodes[0].BytesSent
	}
	eOff, bOff := run(false)
	eOn, bOn := run(true)
	if eOn != eOff || bOn != bOff {
		t.Fatalf("1-message batch diverges from unbatched: elapsed %v vs %v, bytes %d vs %d",
			eOn, eOff, bOn, bOff)
	}
}

func TestCoalesceMergesSameDestinationPuts(t *testing.T) {
	// Many small puts to one destination in a single body must collapse to
	// far fewer wire messages and finish sooner (shared per-message
	// overhead and one header instead of N).
	const puts = 12
	run := func(coal bool) (sim.Time, uint64) {
		sink := make([]float64, puts)
		rt := New(earth.Config{Nodes: 2, Seed: 1,
			Coalesce: earth.CoalesceConfig{Enabled: coal}})
		st := rt.Run(func(c earth.Ctx) {
			for i := 0; i < puts; i++ {
				earth.DataSyncF64(c, 1, float64(i), &sink[i], nil, 0)
			}
		})
		for i := range sink {
			if sink[i] != float64(i) {
				t.Fatalf("coal=%v: sink[%d] = %v", coal, i, sink[i])
			}
		}
		return st.Elapsed, st.Total().MsgsSent
	}
	eOff, mOff := run(false)
	eOn, mOn := run(true)
	if mOn >= mOff {
		t.Fatalf("coalescing did not reduce messages: %d vs %d", mOn, mOff)
	}
	if eOn >= eOff {
		t.Fatalf("coalescing did not reduce elapsed: %v vs %v", eOn, eOff)
	}
}

func TestCoalesceFlushOrderAscendingDestination(t *testing.T) {
	// One body writes to destinations 3, 1, 2 (in that order); the
	// end-of-body flush must walk the buffers in ascending destination
	// order — canonical, never first-use or map order.
	var tr eventList
	var sink [4]float64
	rt := New(earth.Config{Nodes: 4, Seed: 1, Tracer: &tr,
		Coalesce: earth.CoalesceConfig{Enabled: true}})
	rt.Run(func(c earth.Ctx) {
		for _, dst := range []earth.NodeID{3, 1, 2} {
			earth.DataSyncF64(c, dst, 1.0, &sink[dst], nil, 0)
		}
	})
	var flushes []earth.Event
	for _, e := range tr {
		if e.Kind == earth.EvBatchFlush {
			flushes = append(flushes, e)
		}
	}
	if len(flushes) != 3 {
		t.Fatalf("flushes = %d, want 3: %v", len(flushes), flushes)
	}
	for i, want := range []earth.NodeID{1, 2, 3} {
		if flushes[i].Peer != want {
			t.Fatalf("flush %d went to %d, want %d", i, flushes[i].Peer, want)
		}
		if flushes[i].Wait != 1 {
			t.Fatalf("flush %d batched %d msgs, want 1", i, flushes[i].Wait)
		}
	}
	// Ascending destination at one instant also means non-decreasing time.
	for i := 1; i < len(flushes); i++ {
		if flushes[i].Time < flushes[i-1].Time {
			t.Fatalf("flush times regress: %v", flushes)
		}
	}
}

func TestCoalesceMaxMsgsThreshold(t *testing.T) {
	// With MaxMsgs=2, five same-destination puts must flush as batches of
	// 2, 2 and 1 — the last at the body boundary.
	var tr eventList
	sink := make([]float64, 5)
	rt := New(earth.Config{Nodes: 2, Seed: 1, Tracer: &tr,
		Coalesce: earth.CoalesceConfig{Enabled: true, MaxMsgs: 2}})
	rt.Run(func(c earth.Ctx) {
		for i := range sink {
			earth.DataSyncF64(c, 1, float64(i+1), &sink[i], nil, 0)
		}
	})
	var sizes []int
	for _, e := range tr {
		if e.Kind == earth.EvBatchFlush {
			sizes = append(sizes, int(e.Wait))
		}
	}
	want := []int{2, 2, 1}
	if len(sizes) != len(want) {
		t.Fatalf("flush sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("flush sizes = %v, want %v", sizes, want)
		}
	}
	for i := range sink {
		if sink[i] != float64(i+1) {
			t.Fatalf("sink = %v", sink)
		}
	}
}

func TestCoalesceMaxBytesThreshold(t *testing.T) {
	// With MaxBytes=16, 8-byte puts must flush every second message.
	var tr eventList
	sink := make([]float64, 4)
	rt := New(earth.Config{Nodes: 2, Seed: 1, Tracer: &tr,
		Coalesce: earth.CoalesceConfig{Enabled: true, MaxBytes: 16}})
	rt.Run(func(c earth.Ctx) {
		for i := range sink {
			earth.DataSyncF64(c, 1, 1.0, &sink[i], nil, 0)
		}
	})
	flushes := 0
	for _, e := range tr {
		if e.Kind == earth.EvBatchFlush {
			flushes++
			if e.Bytes > 16 {
				t.Fatalf("flush carried %d bytes, threshold 16", e.Bytes)
			}
		}
	}
	if flushes != 2 {
		t.Fatalf("flushes = %d, want 2", flushes)
	}
}

func TestCoalesceMixedOpsDeliverInIssueOrder(t *testing.T) {
	// Puts, posts and syncs to one destination coalesce into a single
	// batch whose operations apply in issue order at one effect instant.
	var order []string
	var cell float64
	rt := New(coalCfg(2))
	rt.Run(func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, 1, 0, 0)
		f.SetThread(0, func(earth.Ctx) { order = append(order, "sync-fired") })
		c.Invoke(1, 0, func(c earth.Ctx) {
			c.Put(0, 8, func() {
				order = append(order, "put")
				cell = 7
			}, nil, 0)
			c.Post(0, 8, func(earth.Ctx) {
				order = append(order, "post")
				if cell != 7 {
					t.Errorf("post ran before put: cell = %v", cell)
				}
			})
			c.Sync(f, 0)
		})
	})
	want := []string{"put", "post", "sync-fired"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCoalesceFlushBeforeGetPreservesFIFO(t *testing.T) {
	// A Get to a destination with buffered puts must flush them first so
	// the read observes the writes (per-destination FIFO).
	var cell float64
	var got float64
	rt := New(coalCfg(2))
	rt.Run(func(c earth.Ctx) {
		c.Invoke(1, 0, func(c earth.Ctx) {
			earth.DataSyncF64(c, 0, 9.5, &cell, nil, 0)
			earth.GetSyncF64(c, 0, &cell, &got, nil, 0)
		})
	})
	if got != 9.5 {
		t.Fatalf("get observed %v, want 9.5 (batched put must not be overtaken)", got)
	}
}

func TestCoalesceDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64) {
		rt := New(earth.Config{Nodes: 6, Seed: 42,
			Coalesce: earth.CoalesceConfig{Enabled: true, MaxMsgs: 3}})
		var sink [6]float64
		st := rt.Run(func(c earth.Ctx) {
			for i := 0; i < 48; i++ {
				dst := earth.NodeID(1 + i%5)
				i := i
				c.Invoke(dst, 8, func(c earth.Ctx) {
					for j := 0; j < 4; j++ {
						earth.DataSyncF64(c, 0, float64(i*4+j), &sink[0], nil, 0)
					}
				})
			}
		})
		return st.Elapsed, st.Total().MsgsSent
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, m1, e2, m2)
	}
}
