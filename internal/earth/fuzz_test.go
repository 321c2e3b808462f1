package earth

import (
	"bytes"
	"encoding/json"
	"testing"

	"earth/internal/sim"
)

// FuzzStatsJSON: stats artifacts are read back by tools (and by people
// editing them). UnmarshalJSON must never panic, and on whatever it
// accepts marshal∘unmarshal is idempotent: the per-node counters travel
// under NodeStats' own tags, the totals are recomputed, nothing else is
// kept.
func FuzzStatsJSON(f *testing.F) {
	clean, _ := json.Marshal(&Stats{Elapsed: sim.Millisecond, Events: 9,
		Nodes: []NodeStats{{Busy: 5, ThreadsRun: 3, MsgsSent: 2, BytesSent: 64, Syncs: 1}, {TokensRun: 1, TokensStolen: 1}}})
	faulted, _ := json.Marshal(&Stats{Elapsed: 3 * sim.Millisecond,
		Nodes: []NodeStats{{FaultsInjected: 3, Retries: 2, Recovered: 1, DupsDropped: 4, MsgsFenced: 6,
			MsgsCorrupted: 2, WrongVerdicts: 1, FramesReplayed: 2, TokensReassigned: 5},
			{Rejoins: 1, DetectionLatency: sim.Millisecond}},
		Sanitize: &SanitizeReport{FramesTracked: 2, SlotsTracked: 3,
			Findings: []SanitizeFinding{{Kind: SanPendingSlot, Home: 1, Threads: 1, Slots: 1, Count: 2, Frames: 1}}}})
	for _, seed := range [][]byte{clean, faulted,
		[]byte(`{}`), []byte(`null`), []byte(`{"nodes":null}`), []byte(`{"nodes":[{}]}`),
		[]byte(`{"nodes":[{"busy_ns":-1,"threads_run":18446744073709551615}]}`),
		[]byte(`{"elapsed_ns":1e3}`), []byte(`{"nodes":{}}`), []byte(`{"threads":7,"nodes":[]}`),
		[]byte(`{"sanitize":{"findings":[{"kind":"no-such-kind"}]}}`), []byte(`[`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Stats
		if json.Unmarshal(data, &s) != nil {
			return
		}
		once, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("accepted %q but cannot marshal it back: %v", data, err)
		}
		var back Stats
		if err := json.Unmarshal(once, &back); err != nil {
			t.Fatalf("own output %s rejected: %v", once, err)
		}
		twice, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("marshal∘unmarshal is not idempotent:\n%s\n%s", once, twice)
		}
	})
}

// FuzzSanitizeReportJSON: the -sanitize-json report is the other artifact
// tools read back. UnmarshalJSON must never panic, and on whatever it
// accepts marshal∘unmarshal is idempotent: findings keep their order, kinds
// travel by name, a clean report has no findings key.
func FuzzSanitizeReportJSON(f *testing.F) {
	findings, _ := json.Marshal(&SanitizeReport{FramesTracked: 5, SlotsTracked: 7, Findings: []SanitizeFinding{
		{Kind: SanOverflow, Home: 1, Threads: 1, Slots: 1, Count: 2, Frames: 3},
		{Kind: SanOverflow, Home: 0, Threads: 2, Slots: 2, Index: 1, Count: -1, Frames: 1},
		{Kind: SanPendingSlot, Home: 2, Threads: 1, Slots: 1, Count: 1, Frames: 1},
		{Kind: SanThreadNeverRan, Home: 3, Threads: 1, Slots: 0, Frames: 2}}})
	clean, _ := json.Marshal(&SanitizeReport{FramesTracked: 2, SlotsTracked: 2})
	for _, seed := range [][]byte{findings, clean,
		[]byte(`{}`), []byte(`null`), []byte(`{"findings":null}`), []byte(`{"findings":[]}`),
		[]byte(`{"findings":[{}]}`), []byte(`{"findings":[{"kind":"unknown"}]}`),
		[]byte(`{"findings":[{"kind":"pending-slot","count":9223372036854775807,"home":-1}]}`),
		[]byte(`{"frames_tracked":1e2}`), []byte(`{"findings":{}}`), []byte(`[`), []byte(`"x"`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SanitizeReport
		if json.Unmarshal(data, &r) != nil {
			return
		}
		once, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("accepted %q but cannot marshal it back: %v", data, err)
		}
		var back SanitizeReport
		if err := json.Unmarshal(once, &back); err != nil {
			t.Fatalf("own output %s rejected: %v", once, err)
		}
		twice, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("marshal∘unmarshal is not idempotent:\n%s\n%s", once, twice)
		}
	})
}
