package earth

import (
	"math/rand"
	"slices"
	"testing"
)

// shipment is one batch a Coalescer handed to its Shipper, with a copy of
// the slice's whole backing array as it was handed over.
type shipment struct {
	dst   NodeID
	ops   []int
	bytes int
	whole []int
}

// shipLog is a Shipper recording every batch.
type shipLog []shipment

func (l *shipLog) Ship(dst NodeID, ops []int, bytes int) {
	*l = append(*l, shipment{dst, ops, bytes, slices.Clone(ops[:cap(ops)])})
}

// modelBuf is one destination's pending batch in the model.
type modelBuf struct {
	ops   []int
	bytes int
}

// TestCoalescerAgainstModel drives a Coalescer and a per-destination FIFO
// model with the same random Add, FlushTo and Drain calls. Every call must
// ship exactly the batches the model predicts: an Add the batch that has
// just reached coalMaxMsgs operations or coalMaxBytes bytes, a FlushTo its
// destination's pending batch, a Drain every pending batch in ascending
// destination order. A slice handed to the shipper must never be written
// again, not even past its length.
func TestCoalescerAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var co Coalescer[int]
	var log shipLog
	var model [8]modelBuf
	var want []shipment
	expect := func(d NodeID) {
		if b := &model[d]; len(b.ops) > 0 {
			want = append(want, shipment{dst: d, ops: b.ops, bytes: b.bytes})
			*b = modelBuf{}
		}
	}
	countTrips, byteTrips, drains := 0, 0, 0
	for step := 0; step < 20000; step++ {
		before := len(log)
		want = want[:0]
		switch r := rng.Intn(200); {
		case r == 0:
			co.Drain(&log)
			for d := range model { // ascending destination order
				expect(NodeID(d))
			}
			drains++
		case r < 5:
			d := NodeID(rng.Intn(8))
			co.FlushTo(&log, d)
			expect(d)
		default:
			d := NodeID(rng.Intn(8))
			n := rng.Intn(64)
			if rng.Intn(20) == 0 {
				n = 1000 + rng.Intn(3200) // a big block: the byte limit trips too
			}
			co.Add(&log, d, step, n)
			b := &model[d]
			b.ops = append(b.ops, step)
			b.bytes += n
			switch {
			case len(b.ops) == coalMaxMsgs:
				countTrips++
				expect(d)
			case b.bytes >= coalMaxBytes:
				byteTrips++
				expect(d)
			}
		}
		got := log[before:]
		if len(got) != len(want) {
			t.Fatalf("step %d: shipped %d batches, want %d", step, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.dst != w.dst || g.bytes != w.bytes || !slices.Equal(g.ops, w.ops) {
				t.Fatalf("step %d: batch %d went to %d with %v (%d bytes), want %d with %v (%d bytes)",
					step, i, g.dst, g.ops, g.bytes, w.dst, w.ops, w.bytes)
			}
		}
	}
	for i, s := range log {
		if !slices.Equal(s.ops[:cap(s.ops)], s.whole) {
			t.Fatalf("batch %d (to %d) was written after it was shipped", i, s.dst)
		}
	}
	if countTrips < 100 || byteTrips < 100 || drains < 50 {
		t.Fatalf("%d count trips, %d byte trips, %d drains: too tame to test anything", countTrips, byteTrips, drains)
	}
}
