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
// model with the same random Add, FlushTo and Drain calls, and gives random
// shipped batches back through Recycle. Every call must ship exactly the
// batches the model predicts: an Add the batch that has just reached
// coalMaxMsgs operations or coalMaxBytes bytes, a FlushTo its
// destination's pending batch, a Drain every pending batch in ascending
// destination order. A slice handed to the shipper must never be written
// again, not even past its length, until it is given back; a batch must
// never start in a slice still out with the shipper, and one that starts
// in a recycled slice finds it empty.
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
	var out []shipment         // the shipped batches not given back yet
	shipped := map[*int]bool{} // every backing array ever shipped
	countTrips, byteTrips, drains, recycled, reused := 0, 0, 0, 0, 0
	for step := 1; step <= 20000; step++ {
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
		case r < 25:
			if len(out) == 0 {
				break
			}
			i := rng.Intn(len(out))
			s := out[i]
			if !slices.Equal(s.ops[:cap(s.ops)], s.whole) {
				t.Fatalf("step %d: a batch to %d was written before it was given back", step, s.dst)
			}
			co.Recycle(s.ops)
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			recycled++
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
			p := &g.ops[:1][0]
			if slices.ContainsFunc(out, func(s shipment) bool { return &s.ops[:1][0] == p }) {
				t.Fatalf("step %d: a batch to %d started in a slice still out with the shipper", step, g.dst)
			}
			if slices.ContainsFunc(g.whole[len(g.ops):], func(v int) bool { return v != 0 }) {
				t.Fatalf("step %d: a batch to %d started in a slice holding %v", step, g.dst, g.whole)
			}
			if shipped[p] {
				reused++
			}
			shipped[p] = true
			out = append(out, g)
		}
	}
	for _, s := range out {
		if !slices.Equal(s.ops[:cap(s.ops)], s.whole) {
			t.Fatalf("a batch to %d was written after it was shipped", s.dst)
		}
	}
	if countTrips < 100 || byteTrips < 100 || drains < 50 || recycled < 1000 || reused < 100 {
		t.Fatalf("%d count trips, %d byte trips, %d drains, %d slices recycled, %d reused: too tame to test anything",
			countTrips, byteTrips, drains, recycled, reused)
	}
}
