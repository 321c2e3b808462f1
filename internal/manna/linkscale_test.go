package manna

import (
	"math"
	"testing"

	"earth/internal/sim"
)

// TestValidateRejectsNonFiniteBandwidth: NaN fails every comparison, so
// the old `<= 0` check waved it through and poisoned every TxTime; Inf
// silently zeroed all wire times.
func TestValidateRejectsNonFiniteBandwidth(t *testing.T) {
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		c := Default(4)
		c.BandwidthBytesPerSec = bw
		if err := c.Validate(); err == nil {
			t.Errorf("bandwidth %v accepted", bw)
		}
	}
}

// TestSetLinkScale: a degradation callback stretches both the wire time
// and the NIC reservation (an unscaled message queued behind a scaled one
// leaves later); factors <= 1 and a nil callback are no-ops.
func TestSetLinkScale(t *testing.T) {
	const nbytes = 5000 // 100us of serialisation at 50 MB/s
	base := New(Default(4))
	cleanArrival := base.Send(0, 0, 1, nbytes)
	cleanNext := base.Send(0, 0, 1, nbytes)

	m := New(Default(4))
	// Only a transmission starting at 0 is scaled; the next one queues
	// behind it and goes out at the clean rate.
	m.SetLinkScale(func(at sim.Time, src, dst int) float64 {
		if at == 0 {
			return 4
		}
		return 1
	})
	arrival := m.Send(0, 0, 1, nbytes)
	if arrival <= cleanArrival {
		t.Errorf("scaled arrival %v not later than clean %v", arrival, cleanArrival)
	}
	if next := m.Send(0, 0, 1, nbytes); next <= cleanNext {
		t.Errorf("message queued behind a scaled one arrives at %v, not later than clean %v", next, cleanNext)
	}

	// A factor <= 1 never speeds the link up.
	m2 := New(Default(4))
	m2.SetLinkScale(func(at sim.Time, src, dst int) float64 { return 0.25 })
	if got := m2.Send(0, 0, 1, nbytes); got != cleanArrival {
		t.Errorf("factor<1 changed arrival: %v vs %v", got, cleanArrival)
	}

	// Removing the callback restores clean behaviour.
	m.Reset()
	m.SetLinkScale(nil)
	if got := m.Send(0, 0, 1, nbytes); got != cleanArrival {
		t.Errorf("after removal arrival = %v, want %v", got, cleanArrival)
	}

	// Local sends never touch the wire, scaled or not.
	if got := m.Send(0, 2, 2, nbytes); got != base.Send(0, 2, 2, nbytes) {
		t.Error("local send perturbed by link scale")
	}
}
