package enginetest

import (
	"testing"

	"earth/internal/earth"
)

// untraced names, per engine, the event kinds TestEveryKindTraced must not
// see, each with its reason.
var untraced = map[string]map[earth.EventKind]string{
	"livert": {
		earth.EvStealRequest: "livert steals through shared memory: a thief pops a victim's pool under its lock and sends no request",
		earth.EvStealMiss:    "livert steals through shared memory: a dry pool answers no request",
		earth.EvUtilSample:   "livert ignores Config.UtilSamplePeriod",
	},
}

// TestEveryKindTraced: over the streams of the fault matrix's rows, with
// the sanitizer on and coalescing off and on, and of the parity programs,
// each engine traces every event kind at least once, except the kinds
// untraced names for it, which it never traces. A kind no engine emits, or
// one an engine stops emitting, fails here.
func TestEveryKindTraced(t *testing.T) {
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			seen := make([]int, earth.KindCount)
			note := func(evs []earth.Event) {
				for _, e := range evs {
					seen[e.Kind]++
				}
			}
			for _, row := range matrixRows {
				for _, coal := range []bool{false, true} {
					note(matrixCell{row: row, live: eng.name == "livert", coal: coal, san: true}.run(t).evs)
				}
			}
			for _, p := range parityPrograms {
				for _, bal := range parityBalancers {
					for _, form := range getForms {
						col := &traceCollector{}
						p.run(eng.new(earth.Config{Nodes: parityNodes, Seed: 5, Balancer: bal.b, Tracer: col}), form)
						note(col.evs)
					}
				}
			}
			for k, n := range seen {
				kind := earth.EventKind(k)
				why, exempt := untraced[eng.name][kind]
				if n == 0 && !exempt {
					t.Errorf("no %v event traced", kind)
				}
				if n > 0 && exempt {
					t.Errorf("%d %v events traced, but the kind is exempt: %s", n, kind, why)
				}
			}
		})
	}
}
