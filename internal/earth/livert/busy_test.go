package livert

import (
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/sim"
)

// TestBusyPinned holds Stats.Busy to what the bodies did, traced (a clock
// reading per body) and untraced (one per busy period), so the per-period
// clock can neither drop a span nor count one twice, nor count a wait.
// Node 0 runs three bodies back to back, each asleep for nap: one busy
// period. Node 1 runs one at the start and one the last of node 0's sends
// it — two periods with node 0's other two naps of idleness between them.
// Node 2 runs nothing. Sleeps overshoot, so a node's Busy may exceed its
// naps by slack, but not by a nap: a doubled span or a counted gap is at
// least two.
func TestBusyPinned(t *testing.T) {
	const nap, slack = 20 * time.Millisecond, 20 * time.Millisecond
	sleep := func(earth.Ctx) { time.Sleep(nap) }
	prog := func(c earth.Ctx) {
		c.Invoke(1, 8, sleep)
		c.Invoke(0, 8, sleep)
		c.Invoke(0, 8, func(c earth.Ctx) {
			time.Sleep(nap)
			c.Invoke(1, 8, sleep)
		})
		time.Sleep(nap)
	}
	naps := []time.Duration{3 * nap, 2 * nap, 0}
	var busy [2][]sim.Time
	for i, tr := range []earth.Tracer{nil, &traceCount{}} {
		st := runChecked(New(earth.Config{Nodes: 3, Seed: 1, Balancer: earth.BalanceNone, Tracer: tr}), prog)
		for n, ns := range st.Nodes {
			lo, hi := sim.Time(naps[n]), sim.Time(naps[n]+slack)
			if naps[n] == 0 {
				hi = 0
			}
			if ns.Busy < lo || ns.Busy > hi || ns.Busy > st.Elapsed {
				t.Errorf("traced=%v node %d: Busy %v, want within [%v, %v] and at most Elapsed %v",
					tr != nil, n, time.Duration(ns.Busy), time.Duration(lo), time.Duration(hi), time.Duration(st.Elapsed))
			}
			busy[i] = append(busy[i], ns.Busy)
		}
	}
	for n := range naps {
		if d := busy[0][n] - busy[1][n]; d > sim.Time(slack) || -d > sim.Time(slack) {
			t.Errorf("node %d: Busy %v untraced, %v traced", n, time.Duration(busy[0][n]), time.Duration(busy[1][n]))
		}
	}
}
