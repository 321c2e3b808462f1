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
// clean path, everything included. What is left is the program's own four
// objects — the token closure, the thread closure, the fetched word and
// one frame — and a remainder of ring growth and idle-wait timers spread
// over the run: 4.07 measured this way. The engine's messages are
// envelopes queued by value, so a Sync, a Put and both legs of a Get
// allocate nothing, and GetSyncF64's word rides in the envelope
// (earth.WordGetter) instead of two closures (6.07 with them, 7.8 when
// each message was a closure, 13.8 before executors kept one context, the
// queues became rings and a frame one object). One allocation per message,
// or per dispatched item, does not fit.
func TestLiveStormAllocBudget(t *testing.T) {
	const budget = 5
	rt := New(earth.Config{Nodes: stormNodes, Seed: 1})
	body := enginetest.StormProgram(stormNodes, stormTokens)
	perRun := testing.AllocsPerRun(5, func() { rt.Run(body) })
	if perToken := perRun / stormTokens; perToken > budget {
		t.Errorf("the storm allocates %.2f times per token, budget %d", perToken, budget)
	} else {
		t.Logf("%.2f mallocs per token", perToken)
	}
}
