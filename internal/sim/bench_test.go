package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestHeapOrderStress drives the 4-ary heap through randomized push/pop
// interleavings and checks every pop is the (at, seq) minimum.
func TestHeapOrderStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var seq uint64
	// As in a real simulation, never schedule before the last dispatched
	// deadline; then every pop must be (at, seq)-monotonic.
	var now Time
	var lastSeq uint64
	for op := 0; op < 200000; op++ {
		if h.isEmpty() || rng.Intn(3) > 0 {
			seq++
			h.pushEvent(event{at: now + Time(rng.Intn(100)), seq: seq})
			continue
		}
		e := h.popEvent()
		if e.at < now || (e.at == now && e.seq < lastSeq) {
			t.Fatalf("pop out of order: (%d,%d) after (%d,%d)", e.at, e.seq, now, lastSeq)
		}
		now, lastSeq = e.at, e.seq
	}
	for !h.isEmpty() {
		e := h.popEvent()
		if e.at < now || (e.at == now && e.seq < lastSeq) {
			t.Fatalf("drain out of order: (%d,%d) after (%d,%d)", e.at, e.seq, now, lastSeq)
		}
		now, lastSeq = e.at, e.seq
	}
}

// BenchmarkSimEngineSchedule measures steady-state push/pop churn at a
// fixed queue depth: each iteration schedules one event past the backlog
// and dispatches the earliest one. With the concrete 4-ary heap this is
// allocation-free beyond the caller's closure (shared here, so 0 allocs/op).
func BenchmarkSimEngineSchedule(b *testing.B) {
	for _, depth := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := New()
			fn := func() {}
			for i := 0; i < depth; i++ {
				e.At(Time(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(e.Now()+Time(depth), fn)
				e.Step()
			}
		})
	}
}

// BenchmarkSimEngineHold is the classic hold model: each iteration
// dispatches the earliest event and schedules one at now + U[0, 2·mean).
// Unlike BenchmarkSimEngineSchedule, whose new event always lands behind
// the whole backlog, the insert here sifts up a random distance and the
// displaced tail stops at a random depth — the mix a simulation produces.
func BenchmarkSimEngineHold(b *testing.B) {
	const mean = 1000
	for _, depth := range []int{64, 1024, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			e := New()
			fn := func() {}
			for i := 0; i < depth; i++ {
				e.At(Time(rng.Intn(2*mean)), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				e.After(Time(rng.Intn(2*mean)), fn)
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(100, func() {
				e.Step()
				e.After(Time(rng.Intn(2*mean)), fn)
			}); allocs != 0 {
				b.Fatalf("hold step allocates %v times, want 0", allocs)
			}
		})
	}
}
