package enginetest

import (
	"strings"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
)

// Runtime sanitizer conformance: with Config.Sanitize set, both engines
// must detect every class of injected sync-contract violation and agree on
// the aggregated report. (That the report of a contract-clean run does not
// move under coalescing is a TestFaultMatrix check.)

// sanCase is one injected-bug program. Each program terminates cleanly
// (sanitize mode records violations instead of panicking) and must yield
// exactly the expected findings.
type sanCase struct {
	name string
	prog func(c earth.Ctx)
	want []earth.SanitizeFinding
}

func sanCases() []sanCase {
	return []sanCase{
		{
			// Check: slot overflow. A one-shot slot armed for one signal
			// receives three; the two extra syncs must be recorded (and
			// swallowed) rather than panicking.
			name: "overflow",
			prog: func(c earth.Ctx) {
				f := earth.NewFrame(0, 1, 1)
				f.InitSync(0, 1, 0, 0)
				f.SetThread(0, func(earth.Ctx) {})
				for i := 0; i < 3; i++ {
					c.Sync(f, 0)
				}
			},
			want: []earth.SanitizeFinding{
				{Kind: earth.SanOverflow, Home: 0, Threads: 1, Slots: 1, Index: 0, Count: 2, Frames: 1},
			},
		},
		{
			// Check: pending slot (lost-thread deadlock). The slot promises
			// two signals but only one ever arrives; at quiescence the
			// residual counter and the never-dispatched thread both report.
			name: "pending-slot",
			prog: func(c earth.Ctx) {
				f := earth.NewFrame(0, 2, 1)
				f.InitSync(0, 2, 0, 1)
				f.SetThread(0, func(c earth.Ctx) { c.Sync(f, 0) })
				f.SetThread(1, func(earth.Ctx) {})
				c.Spawn(f, 0)
			},
			want: []earth.SanitizeFinding{
				{Kind: earth.SanPendingSlot, Home: 0, Threads: 2, Slots: 1, Index: 0, Count: 1, Frames: 1},
				{Kind: earth.SanThreadNeverRan, Home: 0, Threads: 2, Slots: 1, Index: 1, Frames: 1},
			},
		},
		{
			// Check: thread never ran. Thread 1 is installed but nothing
			// ever enables it — no slot names it and it is never spawned.
			name: "thread-never-ran",
			prog: func(c earth.Ctx) {
				f := earth.NewFrame(0, 2, 0)
				f.SetThread(0, func(earth.Ctx) {})
				f.SetThread(1, func(earth.Ctx) {})
				c.Spawn(f, 0)
			},
			want: []earth.SanitizeFinding{
				{Kind: earth.SanThreadNeverRan, Home: 0, Threads: 2, Slots: 0, Index: 1, Frames: 1},
			},
		},
		{
			// Aggregation: two identical remote-homed frames with the same
			// violation fold into a single finding with Frames == 2, keyed
			// by structure alone. Node 1 is each frame's home, so the syncs
			// travel the wire and the overflow is detected at delivery.
			name: "aggregated-remote",
			prog: func(c earth.Ctx) {
				for i := 0; i < 2; i++ {
					f := earth.NewFrame(1, 1, 1)
					f.InitSync(0, 1, 0, 0)
					f.SetThread(0, func(earth.Ctx) {})
					c.Sync(f, 0)
					c.Sync(f, 0)
				}
			},
			want: []earth.SanitizeFinding{
				{Kind: earth.SanOverflow, Home: 1, Threads: 1, Slots: 1, Index: 0, Count: 1, Frames: 2},
			},
		},
	}
}

func checkFindings(t *testing.T, engine string, st *earth.Stats, want []earth.SanitizeFinding) {
	t.Helper()
	if st.Sanitize == nil {
		t.Fatalf("%s: no sanitize report on a Sanitize run", engine)
	}
	got := st.Sanitize.Findings
	if len(got) != len(want) {
		t.Fatalf("%s: got %d finding(s), want %d:\n%s", engine, len(got), len(want), st.Sanitize)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: finding %d = %+v, want %+v", engine, i, got[i], want[i])
		}
	}
}

// TestSanitizeInjectedBugs proves every sanitizer check fires, on both
// engines, without crashing the run.
func TestSanitizeInjectedBugs(t *testing.T) {
	for _, tc := range sanCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, eng := range []string{"simrt", "livert"} {
				cfg := earth.Config{Nodes: 2, Seed: 3, Sanitize: true}
				var rt earth.Runtime
				if eng == "simrt" {
					rt = simrt.New(cfg)
				} else {
					rt = newLive(cfg)
				}
				checkFindings(t, eng, rt.Run(tc.prog), tc.want)
			}
		})
	}
}

// sanReportRun runs one of the two programs whose report must not depend
// on the coalesce mode: the contract-clean mixed-op program, or (bug) the
// overflow case on the mixed program's kind of machine.
func sanReportRun(t *testing.T, bug, coalesce bool) simOut {
	t.Helper()
	cc := earth.CoalesceConfig{Enabled: coalesce}
	if bug {
		return simRun(t, earth.Config{Nodes: 4, Seed: 32, Sanitize: true, Coalesce: cc}, sanCases()[0].prog)
	}
	return mixRun(t, earth.Config{Nodes: 8, Seed: 31, Coalesce: cc})
}

// TestSanitizeEventEmitted pins the EvSanitize emission contract: one
// event per aggregated finding at the run's makespan, none on clean runs.
func TestSanitizeEventEmitted(t *testing.T) {
	for _, eng := range []string{"simrt", "livert"} {
		col := &traceCollector{}
		cfg := earth.Config{Nodes: 2, Seed: 5, Sanitize: true, Tracer: col}
		var rt earth.Runtime
		if eng == "simrt" {
			rt = simrt.New(cfg)
		} else {
			rt = newLive(cfg)
		}
		st := rt.Run(sanCases()[0].prog)
		var sanEvs []earth.Event
		for _, e := range col.evs {
			if e.Kind == earth.EvSanitize {
				sanEvs = append(sanEvs, e)
			}
		}
		if len(sanEvs) != len(st.Sanitize.Findings) {
			t.Errorf("%s: %d EvSanitize events for %d findings", eng, len(sanEvs), len(st.Sanitize.Findings))
		}
		for _, e := range sanEvs {
			if e.Node != 0 || e.Bytes != 0 || e.Dur != 2 {
				t.Errorf("%s: EvSanitize = %+v, want node=0 index=0 count=2", eng, e)
			}
		}
	}

	// Clean run: no EvSanitize events.
	col := &traceCollector{}
	st := simrt.New(earth.Config{Nodes: 2, Seed: 5, Sanitize: true, Tracer: col}).
		Run(func(c earth.Ctx) {
			f := earth.NewFrame(0, 1, 1)
			f.InitSync(0, 1, 0, 0)
			f.SetThread(0, func(earth.Ctx) {})
			c.Sync(f, 0)
		})
	if !st.Sanitize.Clean() {
		t.Fatalf("clean program reported findings:\n%s", st.Sanitize)
	}
	for _, e := range col.evs {
		if e.Kind == earth.EvSanitize {
			t.Errorf("clean run emitted EvSanitize: %+v", e)
		}
	}
}

// TestSanitizedRuntimeIdlesWithoutFrames: once a sanitized run has been
// scanned, an idle runtime of either engine keeps no frame of it — a
// frame's threads are the program's closures — although its ledgers
// listed every frame the run touched.
func TestSanitizedRuntimeIdlesWithoutFrames(t *testing.T) {
	cfg := earth.Config{Nodes: 4, Seed: 1, Sanitize: true}
	for _, rt := range []earth.Runtime{simrt.New(cfg), livert.New(cfg)} {
		st := rt.Run(StormProgram(4, 50))
		if st.Sanitize == nil || st.Sanitize.FramesTracked == 0 {
			t.Fatalf("%T: the sanitized run tracked no frame", rt)
		}
		for _, p := range Pins(rt) {
			if strings.Contains(p, ".threads[") || strings.Contains(p, ".thread0[") {
				t.Errorf("%T: an idle runtime keeps a frame: %s", rt, p)
				break
			}
		}
	}
}
