package manna

import (
	"testing"

	"earth/internal/sim"
)

func TestBatchCostSingleMessageEqualsUnbatched(t *testing.T) {
	// A 1-message batch is exactly today's message: payload plus one
	// header over the same route. Coalescing must never model a penalty.
	cfg := Default(20)
	for _, tc := range []struct{ src, dst, payload int }{
		{0, 1, 8},     // same crossbar, tiny payload
		{0, 17, 8},    // cross-crossbar
		{3, 12, 4096}, // large payload
		{0, 1, 0},     // header-only message
	} {
		got := cfg.BatchCost(tc.src, tc.dst, 1, tc.payload)
		want := cfg.WireTime(tc.src, tc.dst, tc.payload+HeaderBytes)
		if got != want {
			t.Errorf("BatchCost(%d,%d,1,%d) = %v, want unbatched %v",
				tc.src, tc.dst, tc.payload, got, want)
		}
	}
}

func TestBatchCostNeverBelowMinRemoteLatency(t *testing.T) {
	// Every remote batch still crosses at least one hop carrying at least
	// the header, so simrt's window width stays a sound lower bound on
	// arrivals with coalescing enabled — including for empty and negative
	// payloads.
	for _, cfg := range []Config{Default(20), SP2(16), Myrinet(8)} {
		lb := cfg.MinRemoteLatency()
		for _, tc := range []struct{ n, payload int }{
			{1, 0}, {1, -5}, {4, 0}, {16, 1}, {16, 1 << 20},
		} {
			for _, pair := range [][2]int{{0, 1}, {0, cfg.Nodes - 1}} {
				got := cfg.BatchCost(pair[0], pair[1], tc.n, tc.payload)
				if got < lb {
					t.Errorf("%d nodes: BatchCost(%d,%d,%d,%d) = %v below lookahead %v",
						cfg.Nodes, pair[0], pair[1], tc.n, tc.payload, got, lb)
				}
			}
		}
	}
}

func TestBatchCostLocalIsFree(t *testing.T) {
	cfg := Default(4)
	if got := cfg.BatchCost(2, 2, 5, 1000); got != 0 {
		t.Fatalf("local batch cost = %v, want 0", got)
	}
}

func TestBatchCostBeatsUnbatchedSequence(t *testing.T) {
	// n batched messages pay one header; n unbatched messages pay n. The
	// saving is exactly the n-1 elided headers' serialisation and hop
	// traversals.
	cfg := Default(20)
	const n, each = 8, 8
	batched := cfg.BatchCost(0, 1, n, n*each)
	var sum sim.Time
	for i := 0; i < n; i++ {
		sum += cfg.WireTime(0, 1, each+HeaderBytes)
	}
	if batched >= sum {
		t.Fatalf("batched %v not cheaper than %d unbatched %v", batched, n, sum)
	}
	saved := sum - batched
	// n-1 headers' TxTime plus n-1 hop latencies.
	want := sim.Time(n-1)*cfg.HopLatency + sim.Time(n-1)*cfg.TxTime(HeaderBytes)
	// TxTime truncates to integer ns per message, so the n summed
	// serialisations can each lose up to 1 ns vs the single batched one.
	if diff := saved - want; diff < -sim.Time(n) || diff > sim.Time(n) {
		t.Fatalf("saving = %v, want ~%v (n-1 headers + hops)", saved, want)
	}
}

func TestBatchCostMonotoneInPayload(t *testing.T) {
	cfg := Default(20)
	prev := cfg.BatchCost(0, 1, 1, 0)
	for p := 64; p <= 4096; p *= 2 {
		cur := cfg.BatchCost(0, 1, 4, p)
		if cur <= prev {
			t.Fatalf("BatchCost not monotone: %v at %d bytes after %v", cur, p, prev)
		}
		prev = cur
	}
}
