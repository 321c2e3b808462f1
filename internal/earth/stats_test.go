package earth

import (
	"encoding/json"
	"strings"
	"testing"

	"earth/internal/sim"
)

func TestStatsAggregates(t *testing.T) {
	st := &Stats{
		Elapsed: 10 * sim.Millisecond,
		Nodes: []NodeStats{
			{Busy: 5 * sim.Millisecond, ThreadsRun: 3, TokensRun: 1, TokensStolen: 1, MsgsSent: 4, BytesSent: 100, Syncs: 2},
			{Busy: 10 * sim.Millisecond, ThreadsRun: 7, MsgsSent: 6, BytesSent: 300},
		},
	}
	if st.Total().MsgsSent != 10 {
		t.Errorf("TotalMsgs = %d", st.Total().MsgsSent)
	}
	if st.Total().BytesSent != 400 {
		t.Errorf("TotalBytes = %d", st.Total().BytesSent)
	}
	if st.Total().ThreadsRun != 10 {
		t.Errorf("TotalThreads = %d", st.Total().ThreadsRun)
	}
	if st.Total().TokensStolen != 1 {
		t.Errorf("TotalSteals = %d", st.Total().TokensStolen)
	}
	if u := st.Utilization(); u != 0.75 {
		t.Errorf("Utilization = %v, want 0.75", u)
	}
	s := st.String()
	for _, w := range []string{"elapsed=10.000ms", "nodes=2", "threads=10", "msgs=10", "steals=1"} {
		if !strings.Contains(s, w) {
			t.Errorf("String missing %q: %s", w, s)
		}
	}
}

func TestStatsUtilizationClampsOverlappedNodes(t *testing.T) {
	// Under simrt a node's Busy includes Synchronization-Unit/handler time
	// that overlaps the execution unit, so per-node Busy can exceed the
	// makespan. The mean must clamp each node's fraction at 1.0 rather
	// than report a utilisation above 100%.
	st := &Stats{
		Elapsed: 10 * sim.Millisecond,
		Nodes: []NodeStats{
			{Busy: 25 * sim.Millisecond}, // SU/EU overlap: 2.5x the makespan
			{Busy: 5 * sim.Millisecond},
		},
	}
	if u := st.Utilization(); u != 0.75 {
		t.Errorf("Utilization = %v, want 0.75 (clamped per node)", u)
	}
	if u := st.Utilization(); u > 1 {
		t.Errorf("Utilization = %v exceeds 1.0", u)
	}
	if f := BusyFraction(25*sim.Millisecond, 10*sim.Millisecond); f != 1 {
		t.Errorf("BusyFraction over-unity = %v, want 1", f)
	}
	if f := BusyFraction(5*sim.Millisecond, 10*sim.Millisecond); f != 0.5 {
		t.Errorf("BusyFraction = %v, want 0.5", f)
	}
	if f := BusyFraction(1, 0); f != 0 {
		t.Errorf("BusyFraction with zero elapsed = %v, want 0", f)
	}
}

func TestStatsMarshalJSON(t *testing.T) {
	st := &Stats{
		Elapsed: 2 * sim.Millisecond,
		Nodes: []NodeStats{
			{Busy: sim.Millisecond, ThreadsRun: 3, MsgsSent: 2, BytesSent: 64, Syncs: 1},
			{Busy: 2 * sim.Millisecond, ThreadsRun: 1, TokensRun: 1, TokensStolen: 1},
		},
		Events: 9,
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got["elapsed_ns"].(float64) != 2e6 {
		t.Errorf("elapsed_ns = %v", got["elapsed_ns"])
	}
	if got["utilization"].(float64) != 0.75 {
		t.Errorf("utilization = %v, want 0.75", got["utilization"])
	}
	if got["threads"].(float64) != 4 || got["steals"].(float64) != 1 {
		t.Errorf("totals wrong: %v", got)
	}
	if n := len(got["nodes"].([]any)); n != 2 {
		t.Errorf("nodes = %d", n)
	}
}

func TestStatsUtilizationEdgeCases(t *testing.T) {
	if u := (&Stats{}).Utilization(); u != 0 {
		t.Errorf("empty utilization = %v", u)
	}
	if u := (&Stats{Elapsed: 0, Nodes: make([]NodeStats, 2)}).Utilization(); u != 0 {
		t.Errorf("zero-elapsed utilization = %v", u)
	}
}

// TestStatsBars pins the earthsim -bars rendering: one header line, one
// line per node in the fixed format, the bar filled by BusyFraction — so
// a node whose SU/EU overlap pushes Busy past the makespan draws a full
// bar, not an overlong one.
func TestStatsBars(t *testing.T) {
	st := &Stats{
		Elapsed: 10 * sim.Millisecond,
		Nodes: []NodeStats{
			{Busy: 25 * sim.Millisecond, ThreadsRun: 7, MsgsSent: 6, TokensStolen: 2},
			{Busy: 5 * sim.Millisecond, ThreadsRun: 3, MsgsSent: 4},
			{},
		},
	}
	want := "elapsed 10.000ms over 3 nodes, utilisation 50%\n" +
		"node  0 |" + strings.Repeat("#", 40) + "| busy  100.0%  threads      7  msgs      6  steals    2\n" +
		"node  1 |" + strings.Repeat("#", 20) + strings.Repeat(".", 20) + "| busy   50.0%  threads      3  msgs      4  steals    0\n" +
		"node  2 |" + strings.Repeat(".", 40) + "| busy    0.0%  threads      0  msgs      0  steals    0\n"
	if got := st.Bars(); got != want {
		t.Errorf("Bars =\n%s\nwant\n%s", got, want)
	}
}
