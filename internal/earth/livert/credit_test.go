package livert

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestCreditModel drives up to four reserves and one counter through
// seeded random sequences of the things an executor does with them — issue
// an item (take, refilling when empty), finish one (give), settle — in
// phases that issue work and phases that drain to the end of a run, and,
// single-threaded, holds the package comment's invariant after every step:
// the counter equals the reserves plus the live items, so it is never below
// the live items; it is zero only when both are; and settle reports zero
// exactly when it took the counter there.
func TestCreditModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		execs := make([]credit, 1+rng.Intn(4))
		var total atomic.Int64
		items := int64(1) // the root thread, added on the counter directly
		total.Add(1)
		refills, zeros := 0, 0
		for step := 0; step < 4000; step++ {
			c := &execs[rng.Intn(len(execs))]
			issue := 5 // of 10: a phase that issues work
			if step/250%2 == 1 {
				issue = 0 // a phase that only drains and settles, down to zero
			}
			switch r := rng.Intn(10); {
			case r < issue:
				if c.reserve == 0 {
					refills++
				}
				c.take(&total)
				items++
			case r < 8:
				if items == 0 {
					continue
				}
				items--
				c.give()
			default:
				held := c.reserve
				zero := c.settle(&total)
				if c.reserve != 0 {
					t.Fatalf("seed %d step %d: settle left %d in the reserve", seed, step, c.reserve)
				}
				if zero != (held > 0 && total.Load() == 0) {
					t.Fatalf("seed %d step %d: settle of %d reported %v with the counter at %d", seed, step, held, zero, total.Load())
				}
				if zero {
					zeros++
				}
			}
			var reserves int64
			for i := range execs {
				reserves += execs[i].reserve
			}
			if got := total.Load(); got != reserves+items {
				t.Fatalf("seed %d step %d: counter %d, reserves %d + items %d", seed, step, got, reserves, items)
			}
			if total.Load() == 0 && (reserves != 0 || items != 0) {
				t.Fatalf("seed %d step %d: counter zero with reserves %d, items %d", seed, step, reserves, items)
			}
			if total.Load() == 0 {
				// The run would be over: start another on the same reserves.
				items = 1
				total.Add(1)
			}
		}
		if refills < 2 || zeros == 0 {
			t.Fatalf("seed %d: %d refills, %d settles to zero: the walk tests nothing", seed, refills, zeros)
		}
	}
}
