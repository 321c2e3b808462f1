package simrt

import (
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/faults"
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

// flushSizes returns the message count (Event.Wait) and payload bytes of
// every EvBatchFlush in tr, in trace order.
func flushSizes(tr eventList) (msgs, bytes []int) {
	for _, e := range tr {
		if e.Kind == earth.EvBatchFlush {
			msgs = append(msgs, int(e.Wait))
			bytes = append(bytes, e.Bytes)
		}
	}
	return msgs, bytes
}

func TestCoalesceMaxMsgsThreshold(t *testing.T) {
	// A batch holds 16 messages: forty same-destination 8-byte puts must
	// flush as batches of 16, 16 and 8 — the last at the body boundary.
	var tr eventList
	sink := make([]float64, 40)
	rt := New(earth.Config{Nodes: 2, Seed: 1, Tracer: &tr,
		Coalesce: earth.CoalesceConfig{Enabled: true}})
	rt.Run(func(c earth.Ctx) {
		for i := range sink {
			earth.DataSyncF64(c, 1, float64(i+1), &sink[i], nil, 0)
		}
	})
	if msgs, _ := flushSizes(tr); !slices.Equal(msgs, []int{16, 16, 8}) {
		t.Fatalf("flush sizes = %v, want [16 16 8]", msgs)
	}
	for i := range sink {
		if sink[i] != float64(i+1) {
			t.Fatalf("sink = %v", sink)
		}
	}
}

func TestCoalesceMaxBytesThreshold(t *testing.T) {
	// A batch ships once it carries 4096 bytes: 2048-byte puts must flush
	// every second message, 1000-byte ones every fifth.
	for _, tc := range []struct {
		size, puts int
		want       []int
	}{
		{2048, 5, []int{4096, 4096, 2048}},
		{1000, 6, []int{5000, 1000}},
	} {
		var tr eventList
		rt := New(earth.Config{Nodes: 2, Seed: 1, Tracer: &tr,
			Coalesce: earth.CoalesceConfig{Enabled: true}})
		rt.Run(func(c earth.Ctx) {
			for range tc.puts {
				c.Put(1, tc.size, func() {}, nil, 0)
			}
		})
		if _, bytes := flushSizes(tr); !slices.Equal(bytes, tc.want) {
			t.Errorf("%d puts of %d bytes: flushes carried %v bytes, want %v", tc.puts, tc.size, bytes, tc.want)
		}
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
		rt := New(coalCfg(6))
		var sink [6]float64
		st := rt.Run(func(c earth.Ctx) {
			for i := 0; i < 48; i++ {
				dst := earth.NodeID(1 + i%5)
				c.Invoke(dst, 8, func(c earth.Ctx) {
					// 20 puts: every body trips the 16-message limit once.
					for j := 0; j < 20; j++ {
						earth.DataSyncF64(c, 0, float64(i*20+j), &sink[0], nil, 0)
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

// capShipper records the capacity of the one batch it is handed.
type capShipper struct{ cap int }

func (s *capShipper) Ship(_ earth.NodeID, ops []coalOp, _ int) { s.cap = cap(ops) }

// TestCoalescedDupBatchNotRecycled: one body on node 0 puts 64 values to
// node 1, which the coalescer ships as four batches of 16, under a plan
// that duplicates (nearly) every message. Each clone is routed one retry
// timeout after its original, so it fires after it and is dropped there;
// it shares the original's operations, so the original's firing must not
// hand them back to node 0's coalescer, and node 0's next batch after the
// run (in the store the run gave back) must start in a fresh slice.
// Without duplicates the same run gives every slice back, and the next
// batch starts in one of them.
func TestCoalescedDupBatchNotRecycled(t *testing.T) {
	const batches = 4
	for _, dup := range []float64{0, 0.999} {
		sink := make([]float64, batches*16)
		applied := 0
		rt := New(earth.Config{Nodes: 2, Seed: 1, Faults: &faults.Plan{Dup: dup},
			Coalesce: earth.CoalesceConfig{Enabled: true}})
		st := rt.Run(func(c earth.Ctx) {
			for i := range sink {
				v, slot := float64(i+1), &sink[i]
				c.Put(1, 8, func() { *slot += v; applied++ }, nil, 0)
			}
		})
		for i, v := range sink {
			if v != float64(i+1) {
				t.Fatalf("dup=%v: put %d left %v, want %d", dup, i, v, i+1)
			}
		}
		if applied != len(sink) {
			t.Fatalf("dup=%v: %d puts applied, want %d", dup, applied, len(sink))
		}
		if dropped := st.Total().DupsDropped; dup > 0 && dropped != batches {
			t.Fatalf("dup=%v: %d duplicates dropped, want one per batch (%d)", dup, dropped, batches)
		}
		var s capShipper
		store := stores.Get() // the one the run gave back
		n0 := &store.lanes[0]
		n0.coal.Add(&s, 1, coalOp{kind: msgSync}, 8)
		n0.coal.FlushTo(&s, 1)
		stores.Put(store)
		if recycled := s.cap > 1; recycled != (dup == 0) {
			t.Errorf("dup=%v: the next batch starts in a slice of capacity %d", dup, s.cap)
		}
	}
}
