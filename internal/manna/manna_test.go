package manna

import (
	"testing"
	"testing/quick"

	"earth/internal/sim"
)

func TestDefaultValid(t *testing.T) {
	for _, n := range []int{1, 2, 16, 20, 64} {
		if err := Default(n).Validate(); err != nil {
			t.Errorf("Default(%d) invalid: %v", n, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Nodes: 0, BandwidthBytesPerSec: 1, CrossbarPorts: 2},
		{Nodes: 1, BandwidthBytesPerSec: 0, CrossbarPorts: 2},
		{Nodes: 1, BandwidthBytesPerSec: 1, CrossbarPorts: 1},
		{Nodes: 1, BandwidthBytesPerSec: 1, CrossbarPorts: 2, HopLatency: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestHops(t *testing.T) {
	c := Default(32)
	if h := c.Hops(3, 3); h != 0 {
		t.Errorf("same node hops = %d, want 0", h)
	}
	if h := c.Hops(0, 15); h != 1 {
		t.Errorf("same crossbar hops = %d, want 1", h)
	}
	if h := c.Hops(0, 16); h != 3 {
		t.Errorf("cross-crossbar hops = %d, want 3", h)
	}
	if h := c.Hops(17, 31); h != 1 {
		t.Errorf("second crossbar local hops = %d, want 1", h)
	}
}

func TestTxTimeMatchesBandwidth(t *testing.T) {
	c := Default(2)
	// 50 bytes at 50 MB/s = 1 us.
	if got := c.TxTime(50); got != sim.Microsecond {
		t.Errorf("TxTime(50) = %v, want 1us", got)
	}
	if got := c.TxTime(0); got != 0 {
		t.Errorf("TxTime(0) = %v, want 0", got)
	}
	if got := c.TxTime(-5); got != 0 {
		t.Errorf("TxTime(-5) = %v, want 0", got)
	}
}

func TestWireTimeLocalIsZero(t *testing.T) {
	c := Default(4)
	if got := c.WireTime(2, 2, 1<<20); got != 0 {
		t.Errorf("local WireTime = %v, want 0", got)
	}
}

func TestSendSerialisesNIC(t *testing.T) {
	m := New(Default(4))
	// Two 50-byte messages issued at the same instant from node 0: the
	// second must queue behind the first's 1us transmission.
	a1 := m.Send(0, 0, 1, 50)
	a2 := m.Send(0, 0, 2, 50)
	if a2-a1 != sim.Microsecond {
		t.Errorf("second arrival %v, first %v: want 1us spacing", a2, a1)
	}
	// A third waits for both: the NIC is reserved until 2us.
	if a3 := m.Send(0, 0, 1, 50); a3-a1 != 2*sim.Microsecond {
		t.Errorf("third arrival %v, first %v: want 2us spacing", a3, a1)
	}
}

func TestSendLocalBypassesNIC(t *testing.T) {
	m := New(Default(4))
	if got := m.Send(100, 1, 1, 1000); got != 100 {
		t.Errorf("local send arrival = %v, want 100", got)
	}
	// A remote send from the same node at the same instant leaves at once.
	if got, want := m.Send(100, 1, 2, 50), New(Default(4)).Send(100, 1, 2, 50); got != want {
		t.Errorf("remote send after a local one arrives at %v, want %v: the local send reserved the NIC", got, want)
	}
}

func TestSendIdleNICNoQueueing(t *testing.T) {
	m := New(Default(4))
	m.Send(0, 0, 1, 50) // NIC busy until 1us
	// A message issued after the NIC is free starts immediately.
	a := m.Send(10*sim.Microsecond, 0, 1, 50)
	want := 10*sim.Microsecond + sim.Microsecond + Default(4).HopLatency
	if a != want {
		t.Errorf("arrival = %v, want %v", a, want)
	}
}

func TestReset(t *testing.T) {
	m := New(Default(2))
	first := m.Send(0, 0, 1, 5000)
	m.Reset()
	if again := m.Send(0, 0, 1, 5000); again != first {
		t.Errorf("after Reset the same send arrives at %v, want %v", again, first)
	}
}

func TestArrivalMonotoneInSizeProperty(t *testing.T) {
	// Property: for a fresh machine, bigger messages never arrive earlier.
	f := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw), int(bRaw)
		if a > b {
			a, b = b, a
		}
		m1 := New(Default(2))
		m2 := New(Default(2))
		return m1.Send(0, 0, 1, a) <= m2.Send(0, 0, 1, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrivalAfterReadyProperty(t *testing.T) {
	// Property: a message never arrives before its software-ready time.
	f := func(ready uint32, size uint16, src, dst uint8) bool {
		m := New(Default(32))
		s, d := int(src)%32, int(dst)%32
		return m.Send(sim.Time(ready), s, d, int(size)) >= sim.Time(ready)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

func TestMinRemoteLatencyPresets(t *testing.T) {
	// For every preset the bound is exactly one first-level hop plus the
	// serialisation of a single byte — the cheapest remote message the
	// model can produce.
	for name, cfg := range map[string]Config{
		"manna":   Default(20),
		"sp2":     SP2(20),
		"myrinet": Myrinet(20),
	} {
		want := cfg.HopLatency + cfg.TxTime(1)
		got := cfg.MinRemoteLatency()
		if got != want {
			t.Errorf("%s: MinRemoteLatency = %v, want %v", name, got, want)
		}
		if got <= 0 {
			t.Errorf("%s: MinRemoteLatency = %v, must be positive", name, got)
		}
		// The bound must be a true lower bound on every remote wire time.
		for _, nbytes := range []int{1, 8, 64, 4096} {
			for _, dst := range []int{1, cfg.CrossbarPorts} {
				if dst >= cfg.Nodes {
					continue
				}
				if wt := cfg.WireTime(0, dst, nbytes); wt < got {
					t.Errorf("%s: WireTime(0,%d,%d) = %v below bound %v",
						name, dst, nbytes, wt, got)
				}
			}
		}
	}
}

func TestMinRemoteLatencyDegenerateConfigs(t *testing.T) {
	// A 1-node machine has no remote pairs; the accessor still returns a
	// positive, well-defined bound so lookahead code needs no special case.
	if got := Default(1).MinRemoteLatency(); got <= 0 {
		t.Errorf("1-node MinRemoteLatency = %v, want positive", got)
	}
	// Zero hop latency: the bound degrades to pure serialisation time.
	c := Default(2)
	c.HopLatency = 0
	if got, want := c.MinRemoteLatency(), c.TxTime(1); got != want {
		t.Errorf("zero-hop-latency bound = %v, want %v", got, want)
	}
	// Pathologically fast link where even TxTime(1) rounds to zero: the
	// bound is clamped to one nanosecond, never zero.
	c.BandwidthBytesPerSec = 1e18
	if got := c.MinRemoteLatency(); got < 1 {
		t.Errorf("clamped bound = %v, want >= 1ns", got)
	}
}

func TestMinRemoteLatencyConservativeUnderLinkScale(t *testing.T) {
	// SetLinkScale models link degradation; it must never let a message
	// arrive earlier than the unscaled bound (factors <= 1 are ignored,
	// factors > 1 stretch). Lookahead computed from the unscaled Config
	// therefore stays safe for the machine's whole lifetime.
	cfg := Default(4)
	bound := cfg.MinRemoteLatency()
	for _, scale := range []float64{0.0, 0.25, 1.0, 1.5, 8.0} {
		m := New(cfg)
		scale := scale
		m.SetLinkScale(func(at sim.Time, src, dst int) float64 { return scale })
		for _, nbytes := range []int{1, 16, 512} {
			ready := 5 * sim.Microsecond
			if arr := m.Send(ready, 0, 1, nbytes); arr-ready < bound {
				t.Errorf("scale %g nbytes %d: arrival-ready = %v below bound %v",
					scale, nbytes, arr-ready, bound)
			}
		}
	}
}

func TestPortedMachinePresets(t *testing.T) {
	for name, cfg := range map[string]Config{"sp2": SP2(16), "myrinet": Myrinet(16)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	// The SP2 switch is slower per hop than MANNA's crossbars.
	if SP2(4).HopLatency <= Default(4).HopLatency {
		t.Error("SP2 hop latency should exceed MANNA's")
	}
	// A small MANNA message beats the same message on the SP2.
	small := 64
	if Default(4).WireTime(0, 1, small) >= SP2(4).WireTime(0, 1, small) {
		t.Error("MANNA should deliver small messages faster than the SP2 model")
	}
}
