package livert

import (
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/enginetest"
)

const stormNodes, stormTokens = 8, 2000

// BenchmarkLiveStorm times whole runs of the 2000-token storm simrt's
// BenchmarkRunStorm* run, on 8 executors, and reports tokens per second.
// Each iteration builds its Runtime, as earthsim and the benchmark do.
func BenchmarkLiveStorm(b *testing.B) {
	body := enginetest.StormProgram(stormNodes, stormTokens)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(earth.Config{Nodes: stormNodes, Seed: 1}).Run(body)
	}
	b.ReportMetric(float64(b.N)*stormTokens/b.Elapsed().Seconds(), "tokens/s")
}

// TestLiveStormAllocBudget caps what one storm token may allocate on the
// clean path, everything included: the program's own six objects (token
// and thread closures, the fetched word, one frame, GetSyncF64's two
// closures) and the engine's handler closures for the Get's two legs and
// the completion Sync — 7.8 measured this way, 13.8 before executors kept
// one context, the queues became rings and a frame one object. An
// allocation per dispatched item, or two more per token, does not fit.
func TestLiveStormAllocBudget(t *testing.T) {
	const budget = 9
	rt := New(earth.Config{Nodes: stormNodes, Seed: 1})
	body := enginetest.StormProgram(stormNodes, stormTokens)
	perRun := testing.AllocsPerRun(5, func() { rt.Run(body) })
	if perToken := perRun / stormTokens; perToken > budget {
		t.Errorf("the storm allocates %.2f times per token, budget %d", perToken, budget)
	} else {
		t.Logf("%.2f mallocs per token", perToken)
	}
}
