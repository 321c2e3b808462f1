package earth

import (
	"testing"

	"earth/internal/sim"
)

func TestEARTHCostsAreMicrosecondScale(t *testing.T) {
	c := EARTHCosts()
	if c.Name != "EARTH" {
		t.Errorf("name = %q", c.Name)
	}
	for name, v := range map[string]sim.Time{
		"ThreadSwitch": c.ThreadSwitch,
		"SpawnLocal":   c.SpawnLocal,
		"SyncSend":     c.SyncSend,
		"SyncRecv":     c.SyncRecv,
		"AsyncSend":    c.AsyncSend,
		"AsyncRecv":    c.AsyncRecv,
	} {
		if v <= 0 || v > 10*sim.Microsecond {
			t.Errorf("%s = %v, want (0, 10us]: EARTH overheads are a few microseconds", name, v)
		}
	}
	if c.CopyPerByte != 0 {
		t.Errorf("EARTH must not charge buffer copies, got %v/byte", c.CopyPerByte)
	}
}

func TestMessagePassingCostsFollowPaper(t *testing.T) {
	// Paper: "increasing communication times to 300 usec ... at both sender
	// and receiver side for synchronous communication, and to only 150 usec
	// ... at the sender side if asynchronous communication can be used".
	c := MessagePassingCosts(300 * sim.Microsecond)
	if c.SyncSend != 300*sim.Microsecond || c.SyncRecv != 300*sim.Microsecond {
		t.Errorf("sync overheads = %v/%v, want 300us both sides", c.SyncSend, c.SyncRecv)
	}
	if c.AsyncSend != 150*sim.Microsecond {
		t.Errorf("async send = %v, want 150us", c.AsyncSend)
	}
	if c.AsyncRecv != 150*sim.Microsecond {
		t.Errorf("async recv = %v, want 150us (receive-path CPU)", c.AsyncRecv)
	}
	if c.CopyPerByte <= 0 {
		t.Error("MP models must charge buffer-copy cost")
	}
	if c.Name != "MP-300us" {
		t.Errorf("name = %q", c.Name)
	}
	// Thread management is unchanged: only communication is inflated.
	e := EARTHCosts()
	if c.ThreadSwitch != e.ThreadSwitch || c.SpawnLocal != e.SpawnLocal {
		t.Error("MP model must keep EARTH thread-management costs")
	}
}

func TestPaperMPModels(t *testing.T) {
	ms := PaperMPModels()
	if len(ms) != 3 {
		t.Fatalf("got %d models, want 3", len(ms))
	}
	want := []sim.Time{300, 500, 1000}
	for i, m := range ms {
		if m.SyncSend != want[i]*sim.Microsecond {
			t.Errorf("model %d sync = %v, want %dus", i, m.SyncSend, want[i])
		}
		if m.AsyncSend != want[i]*sim.Microsecond/2 {
			t.Errorf("model %d async = %v, want %dus", i, m.AsyncSend, want[i]/2)
		}
	}
}

func TestSendRecvCostArithmetic(t *testing.T) {
	c := MessagePassingCosts(300 * sim.Microsecond)
	copy1k := sim.Time(1000) * c.CopyPerByte
	if got := c.SendCost(1000, true); got != 300*sim.Microsecond+copy1k {
		t.Errorf("SendCost sync = %v", got)
	}
	if got := c.SendCost(1000, false); got != 150*sim.Microsecond+copy1k {
		t.Errorf("SendCost async = %v", got)
	}
	if got := c.RecvCost(1000, true); got != 300*sim.Microsecond+copy1k {
		t.Errorf("RecvCost sync = %v", got)
	}
	if got := c.RecvCost(1000, false); got != 150*sim.Microsecond+copy1k {
		t.Errorf("RecvCost async = %v", got)
	}
	if got := c.RecvCost(-5, false); got != 150*sim.Microsecond {
		t.Errorf("RecvCost(-5) = %v, want 150us (no negative copy charge)", got)
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Nodes != 1 {
		t.Errorf("Nodes = %d", c.Nodes)
	}
	if c.Costs.Name != "EARTH" {
		t.Errorf("Costs = %q", c.Costs.Name)
	}
	// Explicit values survive.
	c2 := Config{Nodes: 7, Costs: MessagePassingCosts(300 * sim.Microsecond)}.WithDefaults()
	if c2.Nodes != 7 || c2.Costs.Name != "MP-300us" {
		t.Errorf("explicit config mangled: %+v", c2)
	}
}

func TestBalancerString(t *testing.T) {
	want := map[Balancer]string{
		BalanceSteal:       "steal",
		BalanceRandomPlace: "random",
		BalanceRoundRobin:  "roundrobin",
		BalanceNone:        "none",
		Balancer(99):       "unknown",
	}
	for b, s := range want {
		if b.String() != s {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), s)
		}
	}
}
