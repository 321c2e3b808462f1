package earth

import (
	"testing"

	"earth/internal/sim"
)

func TestRetryPolicyDefaults(t *testing.T) {
	if p := (RetryPolicy{Jitter: 0.5}).WithDefaults(); p != (RetryPolicy{Lease: sim.Millisecond, Jitter: 0.5}) {
		t.Errorf("defaults: %+v, want a 1ms lease and the jitter kept", p)
	}
	// An explicit lease sticks, even one shorter than the retry timeout: the
	// caller may model aggressive detectors.
	for _, lease := range []sim.Time{10 * sim.Millisecond, 100 * sim.Microsecond} {
		if p := (RetryPolicy{Lease: lease}).WithDefaults(); p.Lease != lease {
			t.Errorf("explicit lease %v became %v", lease, p.Lease)
		}
	}
}

func TestAdopterRingWalk(t *testing.T) {
	down := func(ids ...NodeID) func(NodeID) bool {
		return func(c NodeID) bool {
			for _, d := range ids {
				if c == d {
					return true
				}
			}
			return false
		}
	}
	cases := []struct {
		name  string
		x     NodeID
		nodes int
		dead  func(NodeID) bool
		want  NodeID
	}{
		{"live node owns its work", 2, 4, down(), 2},
		{"dead node's successor", 2, 4, down(2), 3},
		{"chained deaths resolve transitively", 1, 4, down(1, 2), 3},
		{"ring wraps past the last node", 3, 4, down(3), 0},
		{"wrap over several dead nodes", 2, 4, down(2, 3, 0), 1},
	}
	for _, c := range cases {
		if got := ringFrom(c.x, c.nodes, c.dead); got != c.want {
			t.Errorf("%s: ringFrom(%d) = %d, want %d", c.name, c.x, got, c.want)
		}
	}
	// Transitivity: ringFrom(x) == ringFrom(candidate chain) for any dead
	// set with a survivor.
	dead := down(0, 1, 3)
	if a, b := ringFrom(0, 4, dead), ringFrom(1, 4, dead); a != b || a != 2 {
		t.Errorf("chained adoption diverged: %d vs %d", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("ringFrom with all nodes down did not panic")
		}
	}()
	ringFrom(0, 3, func(NodeID) bool { return true })
}

func TestAttemptTimeoutBackoff(t *testing.T) {
	want := []sim.Time{
		200 * us, // attempt 0
		400 * us,
		800 * us,
		1600 * us,
		3200 * us,
		6400 * us, // capped from here on
		6400 * us,
		6400 * us, // the eighth, last timeout MaxRetries allows
	}
	if len(want) != MaxRetries {
		t.Fatalf("%d attempts listed, MaxRetries is %d", len(want), MaxRetries)
	}
	for i, w := range want {
		if got := AttemptTimeout(i); got != w {
			t.Errorf("AttemptTimeout(%d) = %v, want %v", i, got, w)
		}
	}
	// A huge attempt index must not overflow.
	if got := AttemptTimeout(1 << 20); got != 6400*us {
		t.Errorf("AttemptTimeout(big) = %v", got)
	}
}
