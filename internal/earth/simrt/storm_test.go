package simrt

import (
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
)

// TestStormAllocBudget caps what one storm token may allocate on a clean
// untraced run, everything included, on a machine reused across runs as
// the benchmark's reps reuse theirs. What is left is the program's own four
// objects — the token closure, the thread closure, the fetched word and
// one frame — and a remainder of queue and pool growth: 4.01 measured this
// way. Envelopes are pooled, and GetSyncF64 moves its word in one
// (earth.WordGetter); its two closures made it 6.01, which does not fit.
func TestStormAllocBudget(t *testing.T) {
	const nodes, tokens, budget = 20, 2000, 4.25
	rt := New(earth.Config{Nodes: nodes, Seed: 1})
	body := enginetest.StormProgram(nodes, tokens)
	perRun := testing.AllocsPerRun(5, func() { rt.Run(body) })
	if perToken := perRun / tokens; perToken > budget {
		t.Errorf("the storm allocates %.2f times per token, budget %.2f", perToken, budget)
	} else {
		t.Logf("%.2f mallocs per token", perToken)
	}
}
